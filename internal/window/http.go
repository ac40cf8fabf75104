package window

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/query"
)

// The HTTP query endpoint (cococollector -serve-query): a thin
// GET-only JSON front over the ring so dashboards and triage tooling
// consume live windowed answers without linking Go.
//
//	GET /query?sql=SELECT+SrcIP,+SUM(Size)+FROM+table+GROUP+BY+SrcIP&range=3:7&limit=5
//	GET /epochs
//
// The range parameter uses the ParseRange grammar; omitting it queries
// the whole retained ring. Responses carry the CONCRETE resolved
// window, so a client can tell exactly which epochs an open-ended
// range covered.

// RangeSpec is a parsed range parameter: an explicit Range, a trailing
// "last:N" window, or the whole retained ring — the latter two resolved
// against the ring at query time.
type RangeSpec struct {
	// Range is the explicit [from, to) selection (ignored when LastN or
	// Whole is set).
	Range Range
	// LastN, when positive, selects the newest N sealed epochs.
	LastN int
	// Whole selects every retained epoch ("" or "*"). Unlike the
	// explicit Range{0, Open}, it never reaches evicted epochs — it
	// re-resolves to the current retention at each query.
	Whole bool
}

// String renders the spec in the grammar ParseRange accepts, so specs
// round-trip (fuzz-pinned).
func (sp RangeSpec) String() string {
	switch {
	case sp.Whole:
		return "*"
	case sp.LastN > 0:
		return fmt.Sprintf("last:%d", sp.LastN)
	}
	return sp.Range.String()
}

// relative reports whether the spec re-resolves against the ring at
// each query ("*" or "last:N") rather than naming fixed epochs.
func (sp RangeSpec) relative() bool { return sp.Whole || sp.LastN > 0 }

// Resolve turns the spec into the concrete range it denotes on ring r.
func (sp RangeSpec) Resolve(r *Ring) Range {
	switch {
	case sp.Whole:
		if from, to, ok := r.Bounds(); ok {
			return Range{From: from, To: to}
		}
		return All() // nothing sealed: resolves to ErrEmpty downstream
	case sp.LastN > 0:
		return r.LastN(sp.LastN)
	}
	return sp.Range
}

// ParseRange parses the window-range grammar of the query endpoint:
//
//	""  | "*"       whole retained ring
//	"a:b"           epochs [a, b)
//	"a:"            epochs [a, newest]
//	":b"            epochs [oldest, b)
//	"last:N"        the newest N sealed epochs (N >= 1)
//
// Epoch numbers are decimal uint64; a:b requires a < b. Anything else
// is an error (never a panic — fuzz-pinned).
func ParseRange(s string) (RangeSpec, error) {
	switch s {
	case "", "*":
		return RangeSpec{Whole: true}, nil
	}
	if n, ok := strings.CutPrefix(s, "last:"); ok {
		v, err := strconv.ParseUint(n, 10, 31)
		if err != nil || v == 0 {
			return RangeSpec{}, fmt.Errorf("window: bad last:N count %q", n)
		}
		return RangeSpec{LastN: int(v)}, nil
	}
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return RangeSpec{}, fmt.Errorf("window: bad range %q (want from:to, last:N or *)", s)
	}
	rg := Range{From: 0, To: Open}
	if lo != "" {
		v, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return RangeSpec{}, fmt.Errorf("window: bad range start %q", lo)
		}
		rg.From = v
	}
	if hi != "" {
		v, err := strconv.ParseUint(hi, 10, 64)
		if err != nil {
			return RangeSpec{}, fmt.Errorf("window: bad range end %q", hi)
		}
		rg.To = v
	}
	if rg.From >= rg.To {
		return RangeSpec{}, fmt.Errorf("window: empty range %q", s)
	}
	return RangeSpec{Range: rg}, nil
}

// Row is one JSON result row of the query endpoint.
type Row struct {
	// Key renders the masked partial key.
	Key string `json:"key"`
	// Size is the estimated mass.
	Size uint64 `json:"size"`
}

// QueryResponse is the JSON body of a successful /query call.
type QueryResponse struct {
	// Mask is the grouping mask in flowkey syntax.
	Mask string `json:"mask"`
	// From and To are the CONCRETE epoch bounds the answer covers.
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
	// Rows are the result rows, size-descending.
	Rows []Row `json:"rows"`
}

// EpochsResponse is the JSON body of /epochs: the retained span and
// the eviction floor.
type EpochsResponse struct {
	// From and To bound the retained epochs ([from, to)); both 0 while
	// nothing is sealed.
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
	// Epochs lists the retained epoch numbers in ascending order.
	Epochs []uint64 `json:"epochs"`
	// EvictedThrough is the highest evicted epoch (meaningful only
	// when Evicted).
	EvictedThrough uint64 `json:"evicted_through"`
	// Evicted reports whether any epoch has been evicted yet.
	Evicted bool `json:"evicted"`
}

// Handler returns the query endpoint for ring r:
//
//	GET /query?sql=...&range=...&limit=N  → QueryResponse
//	GET /epochs                           → EpochsResponse
//
// Errors map to status codes: 400 for unparseable sql/range/limit, 404
// for a window with no sealed epochs, 410 for an explicit range
// reaching evicted epochs ("*" and "last:N" retry instead), 405 for
// non-GET methods.
func Handler(r *Ring) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		q := req.URL.Query()
		stmt := q.Get("sql")
		if stmt == "" {
			http.Error(w, "missing sql parameter", http.StatusBadRequest)
			return
		}
		m, err := query.ParseSQL(stmt)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sp, err := ParseRange(q.Get("range"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		limit := 0
		if ls := q.Get("limit"); ls != "" {
			limit, err = strconv.Atoi(ls)
			if err != nil || limit < 0 {
				http.Error(w, fmt.Sprintf("bad limit %q", ls), http.StatusBadRequest)
				return
			}
		}
		for {
			rg := sp.Resolve(r)
			var from, to uint64
			if from, to, err = r.Resolve(rg); err == nil {
				var rows []Row
				if rows, err = queryRows(r, rg, m, limit); err == nil {
					writeJSON(w, QueryResponse{Mask: m.String(), From: from, To: to, Rows: rows})
					return
				}
			}
			// "*" and "last:N" re-resolve to current retention: a seal
			// that evicted the resolved range's oldest epoch mid-request
			// is retried, never answered 410.
			if !errors.Is(err, ErrEvicted) || !sp.relative() {
				break
			}
		}
		switch {
		case errors.Is(err, ErrEmpty):
			http.Error(w, err.Error(), http.StatusNotFound)
		case errors.Is(err, ErrEvicted):
			http.Error(w, err.Error(), http.StatusGone)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/epochs", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		var resp EpochsResponse
		resp.From, resp.To, _ = r.Bounds()
		for _, s := range r.Sealed() {
			resp.Epochs = append(resp.Epochs, s.Epoch)
		}
		resp.EvictedThrough, resp.Evicted = r.EvictedThrough()
		writeJSON(w, resp)
	})
	return mux
}

// queryRows runs the windowed top query and renders JSON rows.
func queryRows(r *Ring, rg Range, m flowkey.Mask, limit int) ([]Row, error) {
	entries, err := r.Top(rg, m, limit)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(entries))
	for i, e := range entries {
		rows[i] = Row{Key: query.RenderPartial(m, e.Key), Size: e.Size}
	}
	return rows, nil
}

// writeJSON sends v as a JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// Serve starts the query endpoint on addr (":0" picks a free port) and
// returns the bound address. The listener serves until process exit —
// the cococollector -serve-query deployment shape, mirroring
// telemetry.Serve.
func Serve(addr string, r *Ring) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("window: query endpoint: %w", err)
	}
	srv := &http.Server{Handler: Handler(r)}
	go func() { _ = srv.Serve(l) }()
	return l.Addr().String(), nil
}
