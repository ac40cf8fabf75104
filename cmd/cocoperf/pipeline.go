package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/netwide"
	"cocosketch/internal/report"
	"cocosketch/internal/shard"
	"cocosketch/internal/telemetry"
	"cocosketch/internal/window"
)

// codecSpec selects the epoch-report codec: the full snapshot when
// shrink is 0, the compressed two-stage codec at 1/shrink otherwise.
type codecSpec struct{ shrink int }

var fullCodec = codecSpec{}

// agentCodec is the codec agents seal and encode with.
func (c codecSpec) agentCodec(cfg core.Config) (report.Codec[flowkey.FiveTuple], error) {
	if c.shrink == 0 {
		return report.Full[flowkey.FiveTuple](flowkey.FiveTupleFromBytes), nil
	}
	return report.Compressed[flowkey.FiveTuple](cfg, c.shrink, flowkey.FiveTupleFromBytes)
}

// collectorCodec is the codec the collector decodes with; a compressed
// decoder accepts any shrink the payload declares.
func (c codecSpec) collectorCodec(cfg core.Config) (report.Codec[flowkey.FiveTuple], error) {
	if c.shrink == 0 {
		return report.Full[flowkey.FiveTuple](flowkey.FiveTupleFromBytes), nil
	}
	return report.Compressed[flowkey.FiveTuple](cfg, 1, flowkey.FiveTupleFromBytes)
}

// ringConfig is the geometry of the sealed epochs: the shipped stage.
func (c codecSpec) ringConfig(cfg core.Config) core.Config {
	if c.shrink > 1 {
		cfg.BucketsPerArray /= c.shrink
	}
	return cfg
}

// pipeline is the measured system wired through its public API:
// agents report over loopback TCP to a collector, a sealer moves each
// complete epoch into a window ring with SealEpochInto, and the ring
// is served by window.Handler behind net/http. The benchmark times the
// calls from outside, recording a span around each.
type pipeline struct {
	cfg       core.Config
	rec       *recorder
	reg       *telemetry.Registry
	collector *netwide.Collector
	ln        net.Listener
	// served tracks the collector's accept loop and its per-agent
	// handlers, so close can wait for all of them.
	served sync.WaitGroup
	agents []pipeAgent
	ring   *window.Ring

	srv      *http.Server
	httpDone chan struct{}
	client   *http.Client
	url      string
}

type pipeAgent struct {
	agent *netwide.Agent
	conn  *countingConn
}

// countingConn counts the bytes an agent puts on the wire.
type countingConn struct {
	net.Conn
	written uint64
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written += uint64(n)
	return n, err
}

// bootPipeline starts a collector on a loopback listener, connects
// agents agents to it, creates a ring retaining ringW epochs and, when
// serveHTTP is set, serves the ring's query endpoint on a second
// loopback listener with a single keep-alive client.
func bootPipeline(cfg core.Config, codec codecSpec, agents, ringW int, serveHTTP bool, rec *recorder, reg *telemetry.Registry) (*pipeline, error) {
	agentCodec, err := codec.agentCodec(cfg)
	if err != nil {
		return nil, err
	}
	collectorCodec, err := codec.collectorCodec(cfg)
	if err != nil {
		return nil, err
	}
	pl := &pipeline{cfg: cfg, rec: rec, reg: reg}
	pl.collector = netwide.NewCollector(cfg).SetTelemetry(reg).SetCodec(collectorCodec).
		SetSpawn(func(fn func()) {
			pl.served.Add(1)
			go func() {
				defer pl.served.Done()
				fn()
			}()
		})
	if pl.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("collector listener: %w", err)
	}
	pl.served.Add(1)
	go func() {
		defer pl.served.Done()
		_ = pl.collector.Serve(pl.ln)
	}()
	for i := 0; i < agents; i++ {
		conn, err := net.Dial("tcp", pl.ln.Addr().String())
		if err != nil {
			pl.close()
			return nil, fmt.Errorf("agent %d dial: %w", i, err)
		}
		a := netwide.NewAgent(uint16(i), cfg).SetTelemetry(reg).SetCodec(agentCodec)
		pl.agents = append(pl.agents, pipeAgent{agent: a, conn: &countingConn{Conn: conn}})
	}
	pl.ring = window.NewRing(ringW, codec.ringConfig(cfg)).SetTelemetry(reg)
	if serveHTTP {
		hln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			pl.close()
			return nil, fmt.Errorf("query listener: %w", err)
		}
		pl.srv = &http.Server{Handler: &timedHandler{next: window.Handler(pl.ring), rec: rec}}
		pl.httpDone = make(chan struct{})
		go func() {
			defer close(pl.httpDone)
			_ = pl.srv.Serve(hln)
		}()
		pl.client = &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   10 * time.Second,
		}
		pl.url = "http://" + hln.Addr().String() + "/query?"
	}
	return pl, nil
}

// close stops the pipeline and waits for the collector's goroutines
// and the HTTP server to exit.
func (pl *pipeline) close() {
	if pl.srv != nil {
		pl.client.CloseIdleConnections()
		_ = pl.srv.Close()
		<-pl.httpDone
	}
	for _, a := range pl.agents {
		_ = a.conn.Close()
	}
	_ = pl.ln.Close()
	pl.served.Wait()
}

// wireBytes is the total the agents have written since the last reset.
func (pl *pipeline) wireBytes() uint64 {
	var n uint64
	for _, a := range pl.agents {
		n += a.conn.written
	}
	return n
}

func (pl *pipeline) resetWire() {
	for _, a := range pl.agents {
		a.conn.written = 0
	}
}

// agentEpoch measures one epoch on agent a: the capture is replayed
// through shard.ReplayPCAPBasic, absorbed into the agent, sealed with
// EndEpoch and flushed to the collector. It returns once the collector
// has acknowledged the report, with the time EndEpoch returned (the
// epoch's data is complete at the agent from then on).
func (pl *pipeline) agentEpoch(a int, epoch uint32, capture []byte) (ended time.Time, rs shard.ReplayStats, err error) {
	pa := pl.agents[a]
	if got := pa.agent.Epoch(); got != epoch {
		return ended, rs, fmt.Errorf("agent %d is at epoch %d, not %d", a, got, epoch)
	}
	id := int64(epoch)
	root := pl.rec.start("agent.epoch", -1, id)
	defer pl.rec.end(root)
	sk, rs, _, err := replayEpoch(pl.rec, root, id, pl.cfg, pl.reg, capture)
	if err != nil {
		return ended, rs, fmt.Errorf("replay: %w", err)
	}
	if sk.SumValues() != rs.Packets {
		return ended, rs, fmt.Errorf("replayed sketch mass %d, %d packets", sk.SumValues(), rs.Packets)
	}
	h := pl.rec.start("netwide.absorb", root, id)
	err = pa.agent.Absorb(sk)
	pl.rec.end(h)
	if err != nil {
		return ended, rs, fmt.Errorf("absorb: %w", err)
	}
	h = pl.rec.start("netwide.end_epoch", root, id)
	pa.agent.EndEpoch()
	pl.rec.end(h)
	ended = time.Now()
	h = pl.rec.start("netwide.flush", root, id)
	err = pa.agent.Flush(pa.conn)
	pl.rec.end(h)
	if err != nil {
		return ended, rs, fmt.Errorf("flush: %w", err)
	}
	return ended, rs, nil
}

// seal folds the epoch's shards and seals them into the ring, and
// returns the mass of the sealed sketch.
func (pl *pipeline) seal(epoch uint32) (uint64, error) {
	h := pl.rec.start("netwide.seal_epoch_into", -1, int64(epoch))
	sink := &timedSink{ring: pl.ring, rec: pl.rec, parent: h}
	err := pl.collector.SealEpochInto(sink, epoch)
	pl.rec.end(h)
	if err != nil {
		return 0, err
	}
	return sink.sealed.SumValues(), nil
}

// timedSink is the EpochSink handed to SealEpochInto: it times
// Ring.Seal as a child span, so the fold is the parent's self time.
type timedSink struct {
	ring   *window.Ring
	rec    *recorder
	parent int
	sealed *core.Basic[flowkey.FiveTuple]
}

func (s *timedSink) Seal(epoch uint64, sk *core.Basic[flowkey.FiveTuple]) error {
	h := s.rec.start("window.seal", s.parent, int64(epoch))
	defer s.rec.end(h)
	s.sealed = sk
	return s.ring.Seal(epoch, sk)
}

// spanHeader carries the client's request span ("<handle> <id>") to
// the server, so the handler's span becomes its child.
const spanHeader = "X-Cocoperf-Span"

// timedHandler wraps window.Handler to time each request on the server.
type timedHandler struct {
	next http.Handler
	rec  *recorder
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, id := -1, int64(-1)
	if v := r.Header.Get(spanHeader); v != "" {
		if _, err := fmt.Sscan(v, &parent, &id); err != nil {
			parent, id = -1, -1
		}
	}
	h := t.rec.start("window.handler", parent, id)
	t.next.ServeHTTP(w, r)
	t.rec.end(h)
}

// get sends one /query request over the pipeline's client and decodes
// the answer. Any status but 200 is an error.
func (pl *pipeline) get(id int64, m flowkey.Mask, rng string, limit int) (window.QueryResponse, error) {
	var out window.QueryResponse
	q := url.Values{
		"sql":   {"SELECT " + m.String() + ", SUM(Size) FROM table GROUP BY " + m.String()},
		"range": {rng},
		"limit": {strconv.Itoa(limit)},
	}
	req, err := http.NewRequest(http.MethodGet, pl.url+q.Encode(), nil)
	if err != nil {
		return out, err
	}
	h := pl.rec.start("http.request", -1, id)
	if h >= 0 {
		req.Header.Set(spanHeader, fmt.Sprintf("%d %d", h, id))
	}
	resp, err := pl.client.Do(req)
	if err != nil {
		pl.rec.end(h)
		return out, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	pl.rec.end(h)
	if err != nil {
		return out, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("decoding response: %w", err)
	}
	return out, nil
}
