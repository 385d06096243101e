package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the two exchanges a frame travels by. The stream: the
// length-prefixed messages that carry frames over one upgraded connection
// (the layout is in the package comment), and the reading side's connections
// to one daemon — opened by an HTTP/1.1 Upgrade through the caller's
// RoundTripper, used by one exchange at a time, and kept idle between
// exchanges. And the plain HTTP request (Do), which carries a frame to a
// daemon that refused the stream, and the JSON of writes and handshakes.

// UpgradeProtocol is the token of the Upgrade header that asks a daemon's
// GET /v1/binary to switch the connection to stream messages.
const UpgradeProtocol = "rknn-frame"

// MaxTraceField bounds each trace-context field of a request message. The
// encoder sends a longer field as absent; the decoder rejects one.
const MaxTraceField = 1 << 10

// MaxIdleConns is how many upgraded connections to one daemon a Client keeps
// idle between exchanges — the default http.Transport's MaxIdleConnsPerHost.
const MaxIdleConns = 32

// ErrTooLarge is a stream message declared longer than its reader's bound.
// Only the length has been consumed, so the stream cannot go on.
var ErrTooLarge = errors.New("wire: stream message exceeds its bound")

// ErrRefused is a daemon that answered the upgrade with anything but a
// switch to a writable connection: one that predates the stream, or a
// RoundTripper that wraps response bodies. Its client refuses every later
// exchange with it too, so the caller reads that daemon by POST instead.
var ErrRefused = errors.New("wire: the daemon refused the stream upgrade")

func appendField(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// AppendRequestMessage appends a whole request message: the message length,
// the trace context (a field longer than MaxTraceField goes as absent), then
// frame.
func AppendRequestMessage(dst []byte, traceparent, requestID string, frame []byte) []byte {
	if len(traceparent) > MaxTraceField {
		traceparent = ""
	}
	if len(requestID) > MaxTraceField {
		requestID = ""
	}
	dst = appendU32(dst, uint32(4+len(traceparent)+len(requestID)+len(frame)))
	return append(appendField(appendField(dst, traceparent), requestID), frame...)
}

// OpenMessage appends room for a message length to dst: the frame is
// appended after it, and SealMessage fills it in.
func OpenMessage(dst []byte) []byte { return append(dst, 0, 0, 0, 0) }

// SealMessage writes the length of msg — an OpenMessage with a frame
// appended — into its first four bytes.
func SealMessage(msg []byte) { binary.LittleEndian.PutUint32(msg, uint32(len(msg)-4)) }

// AppendResponseMessage appends a whole response message around frame.
func AppendResponseMessage(dst, frame []byte) []byte {
	msg := append(OpenMessage(dst), frame...)
	SealMessage(msg[len(dst):])
	return msg
}

// SplitRequest splits the body of a request message (what ReadMessage
// read) into its trace context and its frame; all three alias body.
func SplitRequest(body []byte) (traceparent, requestID, frame []byte, err error) {
	r := reader{b: body}
	field := func(what string) []byte {
		n := int(r.u16())
		if r.err == nil && n > MaxTraceField {
			r.fail("wire: %s of %d bytes exceeds %d", what, n, MaxTraceField)
		}
		if r.err == nil && n > r.remaining() {
			r.fail("wire: %s of %d bytes exceeds message", what, n)
		}
		if r.err != nil {
			return nil
		}
		r.off += n
		return body[r.off-n : r.off]
	}
	traceparent, requestID = field("traceparent"), field("request id")
	if r.err != nil {
		return nil, nil, nil, r.err
	}
	return traceparent, requestID, body[r.off:], nil
}

// ReadMessage replaces the frame's bytes with the body of the next stream
// message read from r: its length, which must not exceed limit (ErrTooLarge
// otherwise), then that many bytes, read as ReadBody reads a declared body —
// the buffer grows past MaxPooled only as bytes arrive. A stream that ends
// cleanly between messages is io.EOF; one that ends inside a message is
// io.ErrUnexpectedEOF.
func (f *Frame) ReadMessage(r io.Reader, limit int) error {
	f.B = slices.Grow(f.B[:0], 4)[:4]
	if _, err := io.ReadFull(r, f.B); err != nil {
		return err
	}
	n := int64(binary.LittleEndian.Uint32(f.B))
	if n > int64(limit) {
		return fmt.Errorf("%w: %d bytes declared, the bound is %d", ErrTooLarge, n, limit)
	}
	if f.B = f.B[:0]; n == 0 {
		return nil
	}
	return f.ReadBody(r, n)
}

// Client is the reading side of one daemon's stream exchange: the address
// of its upgrade endpoint, the RoundTripper that opens connections to it,
// and the connections idle between exchanges. It is safe for concurrent
// use; each exchange has a connection to itself.
type Client struct {
	url     string
	rt      http.RoundTripper
	refused atomic.Bool

	mu     sync.Mutex
	idle   []*streamConn
	closed bool
}

// streamConn is one upgraded connection. An exchange owns it from the
// moment it leaves the idle list until it goes back; one that saw an error
// or a cancel is closed instead, never reused.
type streamConn struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader
}

// NewClient returns a client of the upgrade endpoint at url (a daemon's
// /v1/binary), opening its connections through rt.
func NewClient(url string, rt http.RoundTripper) *Client {
	return &Client{url: url, rt: rt}
}

// Exchange sends one request frame, with the trace context to join, and
// returns the response frame (at most limit bytes) in a pooled Frame the
// caller releases. The context ends the exchange by closing its connection.
// A failure on a reused connection before any response byte arrives — a
// connection the daemon closed while it sat idle — is retried once, on a
// fresh connection. ErrRefused means the daemon does not speak the stream.
func (c *Client) Exchange(ctx context.Context, traceparent, requestID string, frame []byte, limit int) (*Frame, error) {
	if c.refused.Load() {
		return nil, ErrRefused
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cn, reused := c.get(), true
	if cn == nil {
		var err error
		if cn, err = c.dial(ctx); err != nil {
			return nil, err
		}
		reused = false
	}
	resp, responded, err := cn.exchange(ctx, traceparent, requestID, frame, limit)
	if err != nil && reused && !responded && ctx.Err() == nil {
		cn.rwc.Close()
		if cn, err = c.dial(ctx); err != nil {
			return nil, err
		}
		resp, _, err = cn.exchange(ctx, traceparent, requestID, frame, limit)
	}
	if err != nil {
		cn.rwc.Close()
		return nil, err
	}
	c.put(cn)
	return resp, nil
}

// get takes an idle connection, or nil when none is left.
func (c *Client) get() *streamConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.idle) == 0 {
		return nil
	}
	cn := c.idle[len(c.idle)-1]
	c.idle[len(c.idle)-1] = nil
	c.idle = c.idle[:len(c.idle)-1]
	return cn
}

// put returns a connection after a clean exchange; past the idle cap, or
// once the client is closed, it is closed instead.
func (c *Client) put(cn *streamConn) {
	c.mu.Lock()
	keep := !c.closed && len(c.idle) < MaxIdleConns
	if keep {
		c.idle = append(c.idle, cn)
	}
	c.mu.Unlock()
	if !keep {
		cn.rwc.Close()
	}
}

// Close closes the idle connections, and every connection an exchange in
// flight would have returned. The daemons' stream loops end with them.
func (c *Client) Close() {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, cn := range idle {
		cn.rwc.Close()
	}
}

// dial opens one connection: GET on the upgrade endpoint asking to switch to
// UpgradeProtocol, through the client's RoundTripper. Any answer but 101
// with a writable body is a refusal, remembered for the client's lifetime.
func (c *Client) dial(ctx context.Context) (*streamConn, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", UpgradeProtocol)
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok {
		resp.Body.Close() // undrained: a switched connection would never end

		c.refused.Store(true)
		return nil, ErrRefused
	}
	return &streamConn{rwc: rwc, br: bufio.NewReader(rwc)}, nil
}

// exchange writes one request message and reads its response message.
// responded reports whether any response byte arrived before a failure. A
// context that ends mid-exchange closes the connection, and the exchange
// answers the context's error.
func (cn *streamConn) exchange(ctx context.Context, traceparent, requestID string, frame []byte, limit int) (resp *Frame, responded bool, err error) {
	stop := context.AfterFunc(ctx, func() { cn.rwc.Close() })
	msg := GetFrame()
	msg.B = AppendRequestMessage(msg.B, traceparent, requestID, frame)
	_, err = cn.rwc.Write(msg.B)
	msg.Release()
	if err == nil {
		_, err = cn.br.Peek(1)
	}
	if err == nil {
		responded, resp = true, GetFrame()
		err = resp.ReadMessage(cn.br, limit)
	}
	if !stop() {
		err = ctx.Err()
	}
	if err != nil {
		resp.Release()
		return nil, responded, err
	}
	return resp, true, nil
}

// Do is one plain HTTP exchange, stamped with the trace context to join (the
// traceparent and X-Request-ID headers, each when not empty). The response
// body comes back in a pooled Frame the caller releases (nil on error): at
// most limit bytes, in a buffer sized by the declared Content-Length only up
// to MaxPooled.
func Do(ctx context.Context, hc *http.Client, method, url, contentType string, body []byte, traceparent, requestID string, limit int64) (status int, ctype string, frame *Frame, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, "", nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	frame = GetFrame()
	if err = frame.ReadBody(io.LimitReader(resp.Body, limit), resp.ContentLength); err != nil {
		frame.Release()
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), frame, nil
}
