package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoDaemon is the daemon side of the stream at its smallest: it upgrades
// GET requests and answers every request message with its own frame, after
// hold (when set) returns. It counts the connections it upgraded and keeps
// them, so a test can cut them all.
type echoDaemon struct {
	*httptest.Server
	hold     func(frame []byte)
	upgrades atomic.Int64
	live     atomic.Int64 // connections whose loop still runs

	mu    sync.Mutex
	conns []net.Conn
}

func newEchoDaemon(t *testing.T) *echoDaemon {
	d := &echoDaemon{}
	d.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Upgrade") != UpgradeProtocol {
			http.Error(w, "not an upgrade", http.StatusMethodNotAllowed)
			return
		}
		conn, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			return
		}
		defer conn.Close()
		d.upgrades.Add(1)
		d.live.Add(1)
		defer d.live.Add(-1)
		d.mu.Lock()
		d.conns = append(d.conns, conn)
		d.mu.Unlock()
		brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + UpgradeProtocol + "\r\n\r\n")
		brw.Flush()
		for {
			var f Frame
			if f.ReadMessage(brw.Reader, 1<<20) != nil {
				return
			}
			_, _, frame, err := SplitRequest(f.B)
			if err != nil {
				return
			}
			if d.hold != nil {
				d.hold(frame)
			}
			if _, err := conn.Write(AppendResponseMessage(nil, frame)); err != nil {
				return
			}
		}
	}))
	t.Cleanup(func() { d.cut(); d.Close() })
	return d
}

// cut closes every connection the daemon upgraded, as a restart does.
func (d *echoDaemon) cut() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		c.Close()
	}
	d.conns = nil
}

func (c *Client) idleLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

// TestClientConcurrentExchanges runs many callers through one client at
// once: each gets the answer to its own frame, no connection carries two
// exchanges at a time (an echo would come back to the wrong caller), the
// idle list never passes its cap, and Close empties it. CI runs it under
// the race detector, ten times over.
func TestClientConcurrentExchanges(t *testing.T) {
	d := newEchoDaemon(t)
	c := NewClient(d.URL, http.DefaultTransport)
	const callers, rounds = 48, 40
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				frame := []byte(fmt.Sprintf("caller %d round %d", g, i))
				resp, err := c.Exchange(context.Background(), "", "", frame, 1<<20)
				if err != nil {
					t.Errorf("caller %d round %d: %v", g, i, err)
					return
				}
				if !bytes.Equal(resp.B, frame) {
					t.Errorf("caller %d round %d got %q", g, i, resp.B)
				}
				resp.Release()
				if n := c.idleLen(); n > MaxIdleConns {
					t.Errorf("%d idle connections, cap %d", n, MaxIdleConns)
				}
			}
		}(g)
	}
	wg.Wait()
	if up := d.upgrades.Load(); up > callers {
		t.Errorf("%d connections opened for %d callers: connections are not reused", up, callers)
	}
	// The collector closes a connection nothing references; with it off,
	// only Close can end the daemon's loops.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c.Close()
	if n := c.idleLen(); n != 0 {
		t.Errorf("%d idle connections after Close", n)
	}
	for deadline := time.Now().Add(5 * time.Second); d.live.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d daemon loops still run after Close", d.live.Load())
		}
	}
	// A connection that comes back after Close is closed, not kept.
	if _, err := c.Exchange(context.Background(), "", "", []byte("late"), 1<<20); err != nil {
		t.Fatal(err)
	}
	if n := c.idleLen(); n != 0 {
		t.Errorf("a closed client kept %d connections", n)
	}
}

// TestClientRefusal: a daemon that answers the upgrade with anything but 101
// is refused once and never asked again.
func TestClientRefusal(t *testing.T) {
	var asked atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked.Add(1)
		http.Error(w, "405 method not allowed", http.StatusMethodNotAllowed)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, http.DefaultTransport)
	for i := 0; i < 3; i++ {
		if _, err := c.Exchange(context.Background(), "", "", []byte("x"), 1<<20); !errors.Is(err, ErrRefused) {
			t.Fatalf("exchange %d: %v, want ErrRefused", i, err)
		}
	}
	if asked.Load() != 1 {
		t.Errorf("the daemon was asked to upgrade %d times, want once", asked.Load())
	}
}

// wrappingTransport hands back every response body wrapped, as a transport
// that counts bytes does: a switched connection is no longer writable.
type wrappingTransport struct{ base http.RoundTripper }

type wrappedBody struct{ io.ReadCloser }

func (w wrappingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := w.base.RoundTrip(req)
	if err == nil {
		resp.Body = wrappedBody{resp.Body}
	}
	return resp, err
}

// TestClientRefusesAWrappedBody: a daemon that switches protocols behind a
// RoundTripper that wraps bodies is refused — at once, without waiting on
// the switched connection — and the daemon's side of it ends.
func TestClientRefusesAWrappedBody(t *testing.T) {
	d := newEchoDaemon(t)
	c := NewClient(d.URL, wrappingTransport{http.DefaultTransport})
	done := make(chan error, 1)
	go func() {
		_, err := c.Exchange(context.Background(), "", "", []byte("x"), 1<<20)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRefused) {
			t.Fatalf("exchange through a wrapping transport: %v, want ErrRefused", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the refusal waits on the switched connection")
	}
	if d.upgrades.Load() != 1 {
		t.Errorf("%d upgrades, want the one refused", d.upgrades.Load())
	}
}

// TestClientRetriesAStaleConnection: connections the daemon closed while they
// sat idle fail before any response byte, and each such exchange is retried
// once on a fresh connection — the caller sees no error.
func TestClientRetriesAStaleConnection(t *testing.T) {
	d := newEchoDaemon(t)
	c := NewClient(d.URL, http.DefaultTransport)
	defer c.Close()
	for i := 0; i < 3; i++ {
		resp, err := c.Exchange(context.Background(), "", "", []byte("warm"), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	d.cut()
	time.Sleep(10 * time.Millisecond) // let the FINs land
	for i := 0; i < 3; i++ {
		resp, err := c.Exchange(context.Background(), "", "", []byte("after"), 1<<20)
		if err != nil {
			t.Fatalf("exchange %d on a stale pool: %v", i, err)
		}
		if string(resp.B) != "after" {
			t.Fatalf("got %q", resp.B)
		}
		resp.Release()
	}
}

// TestClientCancelClosesTheConnection: a context that ends mid-exchange
// returns the context's error at once, and the connection it closed is not
// handed to the next exchange.
func TestClientCancelClosesTheConnection(t *testing.T) {
	d := newEchoDaemon(t)
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	d.hold = func(frame []byte) {
		if string(frame) == "block" {
			once.Do(func() { close(entered) })
			<-release
		}
	}
	defer close(release)
	c := NewClient(d.URL, http.DefaultTransport)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Exchange(ctx, "", "", []byte("block"), 1<<20)
		done <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled exchange: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled exchange is still waiting")
	}
	if n := c.idleLen(); n != 0 {
		t.Fatalf("the cancelled connection went back to the pool (%d idle)", n)
	}
	resp, err := c.Exchange(context.Background(), "", "", []byte("next"), 1<<20)
	if err != nil || string(resp.B) != "next" {
		t.Fatalf("next exchange: %q, %v", resp.B, err)
	}
	resp.Release()
}

// TestClientBoundsResponses: a daemon that declares more than the bound is
// an error before anything is read, and one that declares more than it sends
// is an unexpected EOF — with a buffer never sized past MaxPooled.
func TestClientBoundsResponses(t *testing.T) {
	for name, c := range map[string]struct {
		declared uint32
		limit    int
		want     error
	}{
		"past the bound": {1 << 30, 1 << 20, ErrTooLarge},
		"short body":     {64 << 20, 64 << 20, io.ErrUnexpectedEOF},
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				conn, brw, err := http.NewResponseController(w).Hijack()
				if err != nil {
					return
				}
				defer conn.Close()
				brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + UpgradeProtocol + "\r\n\r\n")
				brw.Flush()
				var f Frame
				if f.ReadMessage(brw.Reader, 1<<20) == nil {
					conn.Write(append(appendU32(nil, c.declared), make([]byte, 10)...))
				}
			}))
			defer ts.Close()
			cl := NewClient(ts.URL, http.DefaultTransport)
			defer cl.Close()
			_, err := cl.Exchange(context.Background(), "", "", []byte("q"), c.limit)
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}
