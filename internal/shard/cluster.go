package shard

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"

	"qirana"
)

// Cluster is an in-process shard cluster: n read-only shard brokers,
// each behind a real HTTP listener on a loopback port. Tests, the
// cluster benchmark group and qirouter's -cluster demo mode all build
// on it — the wire protocol, the fan-out and the merge are exactly the
// production ones; only process boundaries are missing.
type Cluster struct {
	Brokers []*qirana.Broker
	URLs    []string
	// Fanout is the connected fan-out when the cluster was built via
	// AttachLocal (nil from StartLocal); exposed so callers can tune its
	// FaultPolicy.
	Fanout  *Fanout
	servers []*http.Server
}

// NewShardBrokers builds n read-only brokers pricing the SAME support
// set as src: the set is saved once (QIRSUP envelope) and loaded into
// each worker, so every node agrees on generation, checksum and element
// order by construction. The workers share src's database instance —
// pricing never mutates it (overlays only).
func NewShardBrokers(src *qirana.Broker, db *qirana.Database, n int, opt qirana.Options) ([]*qirana.Broker, error) {
	var buf bytes.Buffer
	if err := src.SaveSupportSet(&buf); err != nil {
		return nil, fmt.Errorf("export support set for shards: %w", err)
	}
	opt.DataDir = "" // shards never own durable state
	out := make([]*qirana.Broker, n)
	for i := range out {
		b, err := qirana.NewBrokerFromSupport(db, src.TotalPrice(), bytes.NewReader(buf.Bytes()), opt)
		if err != nil {
			return nil, fmt.Errorf("build shard %d: %w", i, err)
		}
		b.SetReadOnly(true)
		out[i] = b
	}
	return out, nil
}

// StartLocal serves each broker as a shard worker on an ephemeral
// loopback port.
func StartLocal(brokers []*qirana.Broker) (*Cluster, error) {
	c := &Cluster{Brokers: brokers}
	for i, b := range brokers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("listen for shard %d: %w", i, err)
		}
		srv := &http.Server{Handler: Handler(b)}
		go srv.Serve(ln)
		c.servers = append(c.servers, srv)
		c.URLs = append(c.URLs, "http://"+ln.Addr().String())
	}
	return c, nil
}

// Close shuts every shard server down.
func (c *Cluster) Close() {
	for _, s := range c.servers {
		s.Close()
	}
}

// AttachLocal turns router into the front of an n-shard in-process
// cluster: it builds n read-only workers over router's own support set,
// serves them on loopback ports, handshakes a Fanout against them,
// verifies the agreed identity against the router, and installs the
// fan-out as the router's Sweeper. The caller owns the returned
// Cluster (Close it when done).
func AttachLocal(router *qirana.Broker, db *qirana.Database, n int, opt qirana.Options) (*Cluster, error) {
	brokers, err := NewShardBrokers(router, db, n, opt)
	if err != nil {
		return nil, err
	}
	cl, err := StartLocal(brokers)
	if err != nil {
		return nil, err
	}
	f, err := Connect(context.Background(), cl.URLs, nil)
	if err != nil {
		cl.Close()
		return nil, err
	}
	info := f.Info()
	if info.SupportGen != router.SupportGen() || info.SupportSum != router.SupportChecksum() || info.Size != router.SupportSetSize() {
		cl.Close()
		return nil, fmt.Errorf("%w: shards agree on gen=%d sum=%016x size=%d but the router holds gen=%d sum=%016x size=%d",
			qirana.ErrSupportMismatch, info.SupportGen, info.SupportSum, info.Size,
			router.SupportGen(), router.SupportChecksum(), router.SupportSetSize())
	}
	router.SetRemoteSweeper(f)
	cl.Fanout = f
	return cl, nil
}
