package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"misketch"
)

// `misketch serve` defaults: the result cache on at 64 MiB in both
// modes, every other field at its zero value (GOMAXPROCS rank workers,
// the default probe cache, the 64 MiB sketch cache, the fs backend).
var (
	serveOptions = misketch.ServerOptions{ResultCacheBytes: 64 << 20}
	coordOptions = misketch.ClusterOptions{ResultCacheBytes: 64 << 20}
	storeOptions = misketch.OpenStoreOptions{}
)

// node is one running discovery server over its own store.
type node struct {
	st   *misketch.Store
	srv  *misketch.DiscoveryServer
	url  string
	stop func() error
}

// deployment is a workload's serving topology: one node, or shards
// behind a coordinator.
type deployment struct {
	nodes     []*node
	coord     *misketch.ClusterCoordinator
	coordURL  string
	coordStop func() error
}

// readURL is where rank traffic goes.
func (d *deployment) readURL() string {
	if d.coord != nil {
		return d.coordURL
	}
	return d.nodes[0].url
}

// close stops every server and waits for it, then closes the stores.
func (d *deployment) close() error {
	var errs []error
	if d.coordStop != nil {
		errs = append(errs, d.coordStop())
	}
	for _, n := range d.nodes {
		if n.stop != nil {
			errs = append(errs, n.stop())
		}
		errs = append(errs, n.st.Close())
	}
	return errors.Join(errs...)
}

type setupTimes struct{ ingest, seal, total time.Duration }

// deploy builds the catalog through the public API (ingest, then seal:
// close, reopen, compact with compression, index), opens it as
// `misketch serve` does and starts the servers on loopback listeners.
// Shard s of n holds the candidates i with i%n == s.
func deploy(ctx context.Context, c *corpus, shards int, dir string, tr *tracer) (*deployment, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	dirs := make([]string, shards)
	vals := make([]float64, blockKeys)
	for s := range dirs {
		dirs[s] = filepath.Join(dir, fmt.Sprintf("shard%d", s))
		st, err := misketch.OpenStoreWithOptions(dirs[s], storeOptions)
		if err != nil {
			return nil, t, err
		}
		for i := s; i < c.size(); i += shards {
			sk, err := c.candidate(i, vals)
			if err == nil {
				err = st.Put(c.name(i), sk)
			}
			if err != nil {
				st.Close()
				return nil, t, fmt.Errorf("ingesting %s: %w", c.name(i), err)
			}
		}
		if err := st.Close(); err != nil {
			return nil, t, err
		}
	}
	t.ingest = time.Since(start)

	sealStart := time.Now()
	for _, d := range dirs {
		st, err := misketch.OpenStoreWithOptions(d, misketch.OpenStoreOptions{Compression: true})
		if err != nil {
			return nil, t, err
		}
		_, err = st.Compact(ctx)
		if err == nil {
			_, err = st.IndexSegments(ctx)
		}
		if err = errors.Join(err, st.Close()); err != nil {
			return nil, t, fmt.Errorf("sealing %s: %w", d, err)
		}
	}
	t.seal = time.Since(sealStart)

	dep := &deployment{}
	var urls []string
	for s, d := range dirs {
		st, err := misketch.OpenStoreWithOptions(d, storeOptions)
		if err != nil {
			dep.close()
			return nil, t, err
		}
		srv := misketch.NewServer(st, serveOptions)
		n := &node{st: st, srv: srv}
		dep.nodes = append(dep.nodes, n)
		var h http.Handler
		if tr != nil {
			h = tr.wrapNode(s, srv, shards > 1)
		}
		if n.url, n.stop, err = listen(ctx, h, srv.ServeListener); err != nil {
			dep.close()
			return nil, t, err
		}
		urls = append(urls, n.url)
	}
	if shards > 1 {
		co, err := misketch.OpenCluster(urls, coordOptions)
		if err != nil {
			dep.close()
			return nil, t, err
		}
		dep.coord = co
		var h http.Handler
		if tr != nil {
			h = tr.wrapCoordinator(co)
		}
		if dep.coordURL, dep.coordStop, err = listen(ctx, h, co.ServeListener); err != nil {
			dep.close()
			return nil, t, err
		}
	}
	t.total = time.Since(start)
	return dep, t, nil
}

// listen serves on a fresh loopback port: through the server's own
// ServeListener (the `misketch serve` path) when h is nil, or through a
// plain http.Server running the tracing wrapper h. stop shuts the
// server down and waits for it to return.
func listen(ctx context.Context, h http.Handler, native func(context.Context, net.Listener) error) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	url := "http://" + ln.Addr().String()
	done := make(chan error, 1)
	if h == nil {
		ctx, cancel := context.WithCancel(ctx)
		go func() { done <- native(ctx, ln) }()
		return url, func() error { cancel(); return <-done }, nil
	}
	hs := &http.Server{Handler: h}
	go func() { done <- hs.Serve(ln) }()
	stop := func() error {
		err := hs.Shutdown(context.Background())
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
	return url, stop, nil
}

// catalogBytes sums on-disk segment bytes over the shards.
func (d *deployment) catalogBytes() int64 {
	var n int64
	for _, nd := range d.nodes {
		n += nd.st.Stats().SegmentBytes
	}
	return n
}

// checkLayout asserts what the benchmark claims to serve: every
// segment sealed with a key index and compressed.
func (d *deployment) checkLayout() error {
	for i, nd := range d.nodes {
		ss := nd.st.Stats()
		if ss.Segments == 0 || ss.IndexedSegments != ss.Segments || ss.CompressedSegments != ss.Segments {
			return fmt.Errorf("shard %d: %d segments, %d indexed, %d compressed; want all indexed and compressed",
				i, ss.Segments, ss.IndexedSegments, ss.CompressedSegments)
		}
	}
	return nil
}
