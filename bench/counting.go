package main

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
)

// countingTransport counts the coordinator's RPCs from outside: calls,
// body bytes each way, and the exchanges the coordinator retries
// (transport errors and 5xx). With keep set it also copies request bodies,
// so their frames can be decoded after the timed section.
type countingTransport struct {
	base http.RoundTripper

	calls, failures     atomic.Int64
	reqBytes, respBytes atomic.Int64

	on     atomic.Bool // counts only while set
	keep   bool
	mu     sync.Mutex // the coordinator fans out to its shards concurrently
	bodies [][]byte
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !c.on.Load() {
		return c.base.RoundTrip(req)
	}
	c.calls.Add(1)
	if req.ContentLength > 0 {
		c.reqBytes.Add(req.ContentLength)
	}
	if c.keep && req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			b, err := io.ReadAll(rc)
			rc.Close()
			if err == nil {
				c.mu.Lock()
				c.bodies = append(c.bodies, b)
				c.mu.Unlock()
			}
		}
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.failures.Add(1)
		return nil, err
	}
	if resp.StatusCode >= 500 {
		c.failures.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.respBytes}
	return resp, nil
}

// reset zeroes the counts, so a warm-up is not charged to the timed calls.
func (c *countingTransport) reset() {
	c.calls.Store(0)
	c.failures.Store(0)
	c.reqBytes.Store(0)
	c.respBytes.Store(0)
	c.mu.Lock()
	c.bodies = nil
	c.mu.Unlock()
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
