package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"qirana"
	"qirana/internal/httpapi"
	"qirana/internal/shard"
)

// stack is one running instance of a workload's system: dataset, broker
// (plus shards and ledger when the workload has them) and, when served,
// the httpapi server on a loopback listener.
type stack struct {
	db      *qirana.Database
	broker  *qirana.Broker
	cluster *shard.Cluster
	dir     string
	srv     *http.Server
	client  *client
	// stmts maps template SQL to its /v1/prepare handle (served stacks)
	// or to its in-process Stmt (unserved stacks).
	stmtIDs map[string]int64
	stmts   map[string]*qirana.Stmt
	// src is the workload's request source over this stack's dataset.
	src source
}

type buildOpts struct {
	serve   bool // serve over HTTP and prime through it
	durable bool
	shards  int
	prime   bool
	tr      *tracer
	parent  int64
}

var stackSeq atomic.Int64

// build brings one stack up. Every step up to the first timed request
// runs inside the returned duration, which is what setup_s measures.
func build(w *workload, seed int64, stateRoot string, o buildOpts) (*stack, time.Duration, error) {
	tr := o.tr
	start := time.Now()
	st := &stack{stmtIDs: map[string]int64{}, stmts: map[string]*qirana.Stmt{}}
	tr.timed("datagen.generate", o.parent, 0, func() { st.db = dataset(w.spec, w.spec.DataSeed) })
	st.src = w.gen(st.db, seed)
	opts := qirana.Options{SupportSetSize: w.spec.SupportSize, Seed: w.spec.DataSeed}
	if o.durable {
		st.dir = filepath.Join(stateRoot, fmt.Sprintf("state-%d-%d", os.Getpid(), stackSeq.Add(1)))
		opts.DataDir = st.dir
	}
	var err error
	tr.timed("qirana.new_broker", o.parent, 0, func() { st.broker, err = qirana.NewBroker(st.db, 100, opts) })
	if err != nil {
		st.close()
		return nil, 0, err
	}
	if o.shards > 0 {
		tr.timed("shard.attach", o.parent, 0, func() {
			st.cluster, err = shard.AttachLocal(st.broker, st.db, o.shards, qirana.Options{SupportSetSize: w.spec.SupportSize, Seed: w.spec.DataSeed})
		})
		if err != nil {
			st.close()
			return nil, 0, err
		}
	}
	if o.serve {
		tr.timed("httpapi.listen", o.parent, 0, func() { err = st.listen(tr) })
		if err != nil {
			st.close()
			return nil, 0, err
		}
	}
	if o.prime {
		tr.timed("prime", o.parent, 0, func() { err = st.prime() })
		if err != nil {
			st.close()
			return nil, 0, err
		}
	}
	return st, time.Since(start), nil
}

func (st *stack) listen(tr *tracer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.srv = &http.Server{Handler: serveTraced(httpapi.New(st.broker, 0), tr)}
	go st.srv.Serve(ln)
	st.client = newClient("http://"+ln.Addr().String(), nproc())
	return nil
}

// prime prepares the workload's templates and prices every prime request
// once, over HTTP when served and in-process otherwise.
func (st *stack) prime() error {
	ctx := context.Background()
	src := st.src
	for _, t := range src.templates {
		if err := st.prepare(t); err != nil {
			return err
		}
	}
	for i := range src.prime {
		rq := &src.prime[i]
		if st.srv != nil {
			if _, ok := st.client.serve(ctx, rq, st.body(rq), ""); !ok {
				return fmt.Errorf("prime %q failed", rq.SQL)
			}
			continue
		}
		if _, err := st.priceInProcess(ctx, rq); err != nil {
			return fmt.Errorf("prime %q: %w", rq.SQL, err)
		}
	}
	return nil
}

func (st *stack) prepare(tmpl string) error {
	if st.srv == nil {
		s, err := st.broker.Prepare(context.Background(), tmpl)
		st.stmts[tmpl] = s
		return err
	}
	body, _ := json.Marshal(map[string]string{"sql": tmpl})
	status, data, err := st.client.post(context.Background(), "/v1/prepare", body, "")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("prepare %q: status %d: %v %s", tmpl, status, err, data)
	}
	var pr struct {
		Stmt int64 `json:"stmt"`
	}
	if err := json.Unmarshal(data, &pr); err != nil {
		return err
	}
	st.stmtIDs[tmpl] = pr.Stmt
	return nil
}

// body renders a request's JSON body against this stack's handles.
func (st *stack) body(rq *request) []byte {
	var v any
	switch rq.Kind {
	case kindQuote:
		v = map[string]any{"sql": rq.SQL}
	case kindStmt:
		v = map[string]any{"stmt": st.stmtIDs[rq.Tmpl], "params": rq.Params}
	case kindAsk:
		v = map[string]any{"buyer": rq.Buyer, "sql": rq.SQL}
	}
	b, _ := json.Marshal(v)
	return b
}

// priceInProcess quotes rq through Broker.Price or Stmt.Price.
func (st *stack) priceInProcess(ctx context.Context, rq *request) (*qirana.PriceResponse, error) {
	if rq.Kind == kindStmt {
		s := st.stmts[rq.Tmpl]
		if s == nil {
			var err error
			if s, err = st.broker.Prepare(ctx, rq.Tmpl); err != nil {
				return nil, err
			}
			st.stmts[rq.Tmpl] = s
		}
		vals := make([]qirana.Value, len(rq.Params))
		for i, p := range rq.Params {
			switch v := p.(type) {
			case int64:
				vals[i] = qirana.NewInt(v)
			case float64:
				vals[i] = qirana.NewFloat(v)
			case string:
				vals[i] = qirana.NewString(v)
			}
		}
		return s.Price(ctx, vals...)
	}
	return st.broker.Price(ctx, qirana.PriceRequest{SQLs: []string{rq.SQL}})
}

func (st *stack) close() {
	if st.srv != nil {
		st.srv.Close()
	}
	if st.client != nil {
		st.client.hc.CloseIdleConnections()
	}
	if st.cluster != nil {
		st.cluster.Close()
	}
	if st.broker != nil {
		st.broker.Close()
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}
