package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"repro/internal/service"
	"repro/internal/shard"
)

// The tiers are built in process from their public constructors, with
// every server on httptest over loopback, and driven over HTTP exactly
// as a client would drive cmd/simd.

// routerCacheBytes is cmd/simd's -router-cache-bytes default.
const routerCacheBytes = 64 << 20

// worker is one simd worker process's worth of server.
type worker struct {
	srv *service.Server
	ts  *httptest.Server
	dir string
}

// startWorker serves a worker with a disk store at dir and cmd/simd's
// defaults otherwise.
func startWorker(dir string, workers int) (*worker, error) {
	srv, err := service.New(service.Options{Workers: workers, StoreDir: dir})
	if err != nil {
		return nil, fmt.Errorf("start worker: %w", err)
	}
	return &worker{srv: srv, ts: httptest.NewServer(srv.Handler()), dir: dir}, nil
}

func (w *worker) close() {
	w.ts.Close()
	w.srv.Close()
}

// cluster is a router in front of workers that were admitted at boot as
// stable shard IDs 0..n-1.
type cluster struct {
	workers []*worker
	ids     []int
	rt      *shard.Router
	front   *httptest.Server
}

// startCluster boots one single-worker simd per directory and a router
// over them with cmd/simd's router defaults.
func startCluster(dirs []string) (*cluster, error) {
	c := &cluster{}
	var urls []string
	for i, dir := range dirs {
		w, err := startWorker(dir, 1)
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, w)
		c.ids = append(c.ids, i)
		urls = append(urls, w.ts.URL)
	}
	rt, err := shard.New(shard.Options{Backends: urls, RouterCacheBytes: routerCacheBytes})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("start router: %w", err)
	}
	c.rt, c.front = rt, httptest.NewServer(rt.Handler())
	return c, nil
}

// owner is the worker that owns a spec hash.
func (c *cluster) owner(hash string) *worker {
	return c.workers[shard.OwnerID(hash, c.ids)]
}

func (c *cluster) dirs() []string {
	var out []string
	for _, w := range c.workers {
		out = append(out, w.dir)
	}
	return out
}

// counters sums the workers' load counters.
func (c *cluster) counters() service.Counters {
	var sum service.Counters
	for _, w := range c.workers {
		n := w.srv.CountersSnapshot()
		sum.Jobs += n.Jobs
		sum.CacheHits += n.CacheHits
		sum.StoreHits += n.StoreHits
		sum.Rejected += n.Rejected
	}
	return sum
}

func (c *cluster) close() {
	if c.front != nil {
		c.front.Close()
	}
	if c.rt != nil {
		c.rt.Close()
	}
	for _, w := range c.workers {
		w.close()
	}
}

// newHTTPClient is the load generator's transport: at most two
// connections per server, as one client process on a 2-core host.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

// post sends one JSON body and returns status, headers and the whole
// response body.
func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, buf, err
}

// copyDir copies a directory of regular files (a store) to dst, so a
// replay can open it without becoming a second writer of the live one.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if os.IsNotExist(err) {
			continue // evicted or renamed away since the listing
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}
