package main

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/dcdb/wintermute/internal/collect"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/rest"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/transport"
	"github.com/dcdb/wintermute/internal/tsdb"
)

// Daemon defaults the stack reproduces (cmd/collectagent, cmd/dcdbpusher).
const (
	resultCacheEntries = 4096 // collectagent -result-cache-size
	pusherSpool        = 256  // dcdbpusher -spool
)

// stack is the system under test in one process: a Collect Agent with a
// persistent tsdb configured like cmd/collectagent's defaults, the REST
// API on loopback, and spooled transport clients configured like
// cmd/dcdbpusher's defaults.
type stack struct {
	dir   string
	reg   *telemetry.Registry
	agent *collect.Agent
	srv   *rest.Server // REST on the production wiring (agent.QE)
	url   string
	http  *http.Client

	// Traced runs only: the counting filesystem under the tsdb, and a
	// second REST server whose Query Engine reads through the timed
	// backend decorator.
	fs        *countFS
	tracedSrv *rest.Server
	tracedURL string

	clients []*transport.Client
}

// stackOptions selects the parts a workload uses.
type stackOptions struct {
	serve bool    // broker and REST
	tr    *tracer // traced runs: counting FS, timed backend
	env   core.Env
}

// openStack starts a stack in a fresh directory under root.
func openStack(root string, o stackOptions) (*stack, error) {
	dir, err := os.MkdirTemp(root, "db-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, reg: telemetry.NewRegistry()}
	cfg := collect.Config{
		StoreDir:        dir,
		StoreWALSync:    false, // collectagent -store-wal-sync default
		ResultCacheSize: resultCacheEntries,
		Metrics:         s.reg,
		Env:             o.env,
	}
	if o.serve {
		cfg.ListenMQTT = "127.0.0.1:0"
	}
	if o.tr != nil {
		s.fs = newCountFS(tsdb.OSFS)
		cfg.StoreFS = s.fs
	}
	a, err := collect.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.agent = a
	if !o.serve {
		return s, nil
	}
	opts := rest.Options{ResultCache: a.Results, Metrics: s.reg}
	if s.srv, err = rest.Serve("127.0.0.1:0", a.Manager, a.QE, opts); err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + s.srv.Addr()
	if o.tr != nil {
		qe := core.NewQueryEngine(a.Nav, a.Caches, &timedBackend{inner: a.DB, tr: o.tr})
		if s.tracedSrv, err = rest.Serve("127.0.0.1:0", a.Manager, qe, opts); err != nil {
			s.close()
			return nil, err
		}
		s.tracedURL = "http://" + s.tracedSrv.Addr()
	}
	s.http = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
	return s, nil
}

// dial connects one pusher-shaped client: at-least-once delivery with a
// 256-batch in-memory spool, transport defaults otherwise.
func (s *stack) dial() (*transport.Client, error) {
	c, err := transport.DialOptions(s.agent.Addr(), transport.Options{SpoolBatches: pusherSpool})
	if err != nil {
		return nil, fmt.Errorf("dialing broker: %w", err)
	}
	s.clients = append(s.clients, c)
	return c, nil
}

// ingested is the agent's count of readings pushed by the ingest
// fan-in into the sink.
func (s *stack) ingested() uint64 {
	v, _ := s.reg.Value("dcdb_ingest_readings_total")
	return uint64(v)
}

// waitIngested waits until the fan-in has pushed n readings in total.
func (s *stack) waitIngested(n uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.ingested() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("ingest drained %d of %d readings within %v", s.ingested(), n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// waitAcked waits until every client's spool is empty.
func (s *stack) waitAcked(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, c := range s.clients {
		for {
			st := c.Stats()
			if st.Acked >= st.Published {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("client acked %d of %d batches within %v", st.Acked, st.Published, timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// close stops everything and removes the database directory.
func (s *stack) close() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	for _, c := range s.clients {
		keep(c.Close())
	}
	if s.http != nil {
		s.http.CloseIdleConnections()
	}
	if s.tracedSrv != nil {
		keep(s.tracedSrv.Close())
	}
	if s.srv != nil {
		keep(s.srv.Close())
	}
	if s.agent != nil {
		keep(s.agent.Close())
	}
	keep(os.RemoveAll(s.dir))
	return first
}
