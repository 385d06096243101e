package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"

	repro "repro"
	"repro/internal/index"
	"repro/internal/server"
)

// system is one workload's stack, built from points in hand up to the
// layer its clients talk to.
type system struct {
	engine  server.Engine          // outermost engine; library clients call it directly
	url     string                 // front door of a served workload, "" otherwise
	durable *repro.DurableSearcher // kindDurable only
	dir     string                 // store directory of durable
	closers []func() error
}

func (s *system) onClose(f func() error) { s.closers = append(s.closers, f) }

// close tears the stack down outermost first and waits for every server it
// started.
func (s *system) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	s.closers = nil
	return errors.Join(errs...)
}

// serve puts h on a real loopback listener.
func (s *system) serve(h http.Handler) string {
	ts := httptest.NewServer(h)
	s.onClose(func() error { ts.Close(); return nil })
	return ts.URL
}

func buildSystem(w workload, in *inputs, tmp string) (*system, error) {
	sys := &system{}
	var err error
	switch w.kind {
	case kindSearcher:
		sys.engine, err = repro.New(in.points, w.engineOptions()...)
	case kindSharded:
		sys.engine, err = repro.NewSharded(in.points, shards, w.engineOptions()...)
	case kindCluster:
		var co *repro.Coordinator
		if co, err = startCluster(sys, w, in.points, nil); err == nil {
			sys.engine = co
			sys.url = sys.serve(server.New(co).Handler())
		}
	case kindDurable:
		var eng *repro.Searcher
		if eng, err = repro.New(in.points, w.engineOptions()...); err != nil {
			break
		}
		if sys.dir, err = os.MkdirTemp(tmp, "store-"); err != nil {
			break
		}
		sys.onClose(func() error { return os.RemoveAll(sys.dir) })
		if sys.durable, err = repro.NewDurable(sys.dir, eng, repro.WithWALSync(1)); err == nil {
			sys.onClose(sys.durable.Close)
			sys.engine = sys.durable
			sys.url = sys.serve(server.New(sys.durable).Handler())
		}
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("building %s: %w", w.name, err), sys.close())
	}
	return sys, nil
}

// partition replays the cluster's hash assignment over the dataset and
// returns each shard's points in local-ID order, as `rknn shard-serve`
// computes its own slice.
func partition(points [][]float64, S int) ([][][]float64, error) {
	m, err := index.NewShardMap(S)
	if err != nil {
		return nil, err
	}
	parts := make([][][]float64, S)
	for range points {
		g, s, _ := m.Assign()
		parts[s] = append(parts[s], points[g])
	}
	return parts, nil
}

// startCluster starts one shard daemon per partition on loopback and
// connects a binary-framed Coordinator with the health loop off. rt, when
// non-nil, carries every coordinator RPC.
func startCluster(sys *system, w workload, points [][]float64, rt http.RoundTripper) (*repro.Coordinator, error) {
	parts, err := partition(points, shards)
	if err != nil {
		return nil, err
	}
	specs := make([]repro.ShardSpec, shards)
	for s, part := range parts {
		eng, err := repro.New(part, w.engineOptions()...)
		if err != nil {
			return nil, fmt.Errorf("shard %d engine: %w", s, err)
		}
		specs[s].Addrs = []string{sys.serve(server.New(eng, server.WithShardRole(s, shards)).Handler())}
	}
	opts := []repro.CoordinatorOption{repro.WithHealthInterval(0)}
	if rt != nil {
		opts = append(opts, repro.WithTransport(rt))
	}
	co, err := repro.NewCoordinator(context.Background(), specs, opts...)
	if err != nil {
		return nil, err
	}
	sys.onClose(co.Close)
	return co, nil
}

// client is one closed-loop caller. Each load goroutine owns one.
type client interface {
	rknn(q query, k int) ([]int, error)
	insert(p []float64) (int, error)
	remove(id int) error
}

func (s *system) newClient() client {
	if s.url == "" {
		return libClient{s.engine}
	}
	return newHTTPClient(s.url)
}

type libClient struct{ eng server.Engine }

func (c libClient) rknn(q query, k int) ([]int, error) {
	if q.id >= 0 {
		return c.eng.ReverseKNNContext(context.Background(), q.id, k)
	}
	return c.eng.ReverseKNNPointContext(context.Background(), q.point, k)
}

func (c libClient) insert(p []float64) (int, error) {
	return c.eng.InsertContext(context.Background(), p)
}

func (c libClient) remove(id int) error {
	ok, err := c.eng.DeleteContext(context.Background(), id)
	if err == nil && !ok {
		err = fmt.Errorf("delete %d: not a live point", id)
	}
	return err
}

// httpClient speaks the public JSON API over one keep-alive connection.
type httpClient struct {
	base string
	hc   *http.Client
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{base: base, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

// do sends one request and decodes a JSON reply into out; any status but
// want is an error carrying the body.
func (c *httpClient) do(method, path, ctype string, body []byte, want int, out any) error {
	resp, err := c.roundTrip(method, path, ctype, body, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(resp, out)
}

func (c *httpClient) roundTrip(method, path, ctype string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// rknnBody is the JSON form of q on POST /v1/rknn.
func rknnBody(q query, k int) []byte {
	req := map[string]any{"k": k}
	if q.id >= 0 {
		req["id"] = q.id
	} else {
		req["point"] = q.point
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // ints and finite floats always encode
	}
	return b
}

func (c *httpClient) rknn(q query, k int) ([]int, error) {
	var out struct {
		IDs []int `json:"ids"`
	}
	err := c.do(http.MethodPost, "/v1/rknn", "application/json", rknnBody(q, k), http.StatusOK, &out)
	return out.IDs, err
}

func (c *httpClient) insert(p []float64) (int, error) {
	body, err := json.Marshal(map[string]any{"point": p})
	if err != nil {
		return 0, err
	}
	out := struct {
		ID int `json:"id"`
	}{ID: -1}
	err = c.do(http.MethodPost, "/v1/points", "application/json", body, http.StatusCreated, &out)
	return out.ID, err
}

func (c *httpClient) remove(id int) error {
	_, err := c.roundTrip(http.MethodDelete, "/v1/points/"+strconv.Itoa(id), "", nil, http.StatusOK)
	return err
}
