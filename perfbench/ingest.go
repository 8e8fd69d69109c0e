package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"pprl/internal/dataset"
	"pprl/internal/incremental"
	"pprl/internal/journal"
	"pprl/internal/match"
	"pprl/internal/service"
)

// ingestParams configure the live-ingest workload: a D1/D2 split appended
// to one live dataset in fixed-size batches, alternating sides, with the
// plaintext comparator and an unlimited allowance. The draw is half the
// paper's 30,162 records: a pass then takes a few seconds, and a run's
// median spans several passes instead of the one slow ramp a full-scale
// pass would give.
type ingestParams struct {
	Records int     `json:"adult_records"`
	Theta   float64 `json:"theta"`
	Batch   int     `json:"batch_records"`
}

var liveIngest = ingestParams{Records: 15000, Theta: 0.05, Batch: 200}

// A run discards its first ingestSetupWarmup service set-ups and reports
// the median of the next ingestSetupReps.
const (
	ingestSetupWarmup = 5
	ingestSetupReps   = 25
)

// opTimeout bounds one HTTP exchange or one wait for a batch's deltas.
const opTimeout = 60 * time.Second

type ingestBench struct {
	p       ingestParams
	rel     *relations
	work    string
	dataDir string
	batches []batchFile
	svcs    int
	ops     int // appends made so far; a traced append's spans carry its number
}

// liveService is one pprl-serve instance on an empty directory, served
// over loopback HTTP, with one registered live dataset.
type liveService struct {
	dir    string
	svc    *service.Server
	hs     *http.Server
	served chan struct{}
	base   string
	id     string
	client *http.Client

	mu sync.Mutex
	jr *journalRecorder // the dataset's wrapped journal, traced passes only
}

// ingestPass is one full ingest of the split into a fresh service.
type ingestPass struct {
	lat, ack, apply []float64 // seconds per append
	retries         int
	status          service.DatasetStatus
	found           int // deltas that are true matches; the pass drops the deltas themselves
	jst             journalStats
}

func (ps *ingestPass) wall() float64 { return sum(ps.lat) }

func newIngestBench(p ingestParams, rel *relations, work string) (*ingestBench, error) {
	b := &ingestBench{p: p, rel: rel, work: work, dataDir: filepath.Join(work, "data")}
	if err := os.MkdirAll(b.dataDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	b.batches, err = writeBatches(rel, b.dataDir, p.Batch)
	return b, err
}

// start is the set-up a pprl-serve deployment pays before its first
// append: service.New on an empty directory, the HTTP listener, and the
// dataset registration. It returns the service and the set-up time.
func (b *ingestBench) start(traced bool) (*liveService, float64, error) {
	b.svcs++
	ls := &liveService{dir: filepath.Join(b.work, fmt.Sprintf("svc-%d", b.svcs)), served: make(chan struct{})}
	cfg := service.Config{Dir: ls.dir, DataDir: b.dataDir}
	if traced {
		cfg.Hooks.WrapDatasetJournal = func(_ string, w *journal.Writer) journal.BatchSink {
			jr := &journalRecorder{inner: w}
			ls.mu.Lock()
			ls.jr = jr
			ls.mu.Unlock()
			return jr
		}
	}
	start := time.Now()
	svc, err := service.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	ls.svc = svc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain()
		return nil, 0, err
	}
	ls.hs = &http.Server{Handler: svc.Handler()}
	go func() {
		defer close(ls.served)
		ls.hs.Serve(ln)
	}()
	ls.base = "http://" + ln.Addr().String()
	ls.client = &http.Client{Transport: &http.Transport{}}
	spec, _ := json.Marshal(service.DatasetSpec{Theta: b.p.Theta})
	var st service.DatasetStatus
	if code, err := ls.call(http.MethodPost, "/v1/datasets", spec, &st); err != nil || code != http.StatusCreated {
		ls.stop()
		return nil, 0, fmt.Errorf("registering the dataset: status %d: %v", code, err)
	}
	ls.id = st.ID
	return ls, time.Since(start).Seconds(), nil
}

// call makes one JSON request with a timeout and decodes a 2xx body.
func (ls *liveService) call(method, path string, body []byte, out any) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, ls.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 || out == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(raw, out)
}

// stop shuts the HTTP server and drains the service, then removes its
// state.
func (ls *liveService) stop() {
	ls.hs.Close()
	<-ls.served
	ls.client.CloseIdleConnections()
	ls.svc.Drain()
	os.RemoveAll(ls.dir)
}

// journal returns the dataset journal's totals so far (zero untraced).
func (ls *liveService) journal() journalStats {
	ls.mu.Lock()
	jr := ls.jr
	ls.mu.Unlock()
	if jr == nil {
		return journalStats{}
	}
	return jr.snapshot()
}

// event is one server-sent delta page, or the error that ended the stream.
type event struct {
	page service.DeltasResponse
	err  error
}

// stream follows the dataset's delta stream until ctx ends, closing the
// returned channel when it stops. The request is made on the stream's
// own goroutine: the server sends no headers until the first batch is
// applied, and a page starting at batch 0 covers every batch applied
// before the request arrived.
func (ls *liveService) stream(ctx context.Context) <-chan event {
	// One page per applied batch; the client reads each before it sends
	// the next append, so one slot suffices.
	out := make(chan event, 1)
	go func() {
		defer close(out)
		send := func(ev event) bool {
			select {
			case out <- ev:
				return true
			case <-ctx.Done():
				return false
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ls.base+"/v1/datasets/"+ls.id+"/deltas?from=0&stream=1", nil)
		if err != nil {
			send(event{err: err})
			return
		}
		resp, err := ls.client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				send(event{err: fmt.Errorf("delta stream: %w", err)})
			}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			send(event{err: fmt.Errorf("delta stream: status %d", resp.StatusCode)})
			return
		}
		br := bufio.NewReaderSize(resp.Body, 1<<16)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				if ctx.Err() == nil {
					send(event{err: fmt.Errorf("delta stream: %w", err)})
				}
				return
			}
			switch {
			case strings.HasPrefix(line, "data: "):
				var ev event
				if err := json.Unmarshal([]byte(line[len("data: "):]), &ev.page); err != nil {
					ev.err = fmt.Errorf("delta stream: %w", err)
				}
				if !send(ev) || ev.err != nil {
					return
				}
			case strings.HasPrefix(line, "event: error"):
				send(event{err: fmt.Errorf("delta stream reported a dataset failure")})
				return
			}
		}
	}()
	return out
}

// pass appends every batch in order, each only after the previous
// batch's deltas are visible on the stream, and reads the final status.
func (b *ingestBench) pass(ls *liveService, rec *Recorder) (*ingestPass, error) {
	ctx, cancel := context.WithCancel(context.Background())
	events := ls.stream(ctx)
	defer func() {
		cancel()
		for range events {
		}
	}()
	ps := &ingestPass{}
	var deltas []incremental.Delta
	for i, bf := range b.batches {
		body, _ := json.Marshal(service.AppendRequest{Side: bf.side, Path: bf.name})
		op := b.ops
		b.ops++
		var jBefore journalStats
		if rec != nil {
			jBefore = ls.journal()
		}
		t0 := time.Now()
		for {
			code, err := ls.call(http.MethodPost, "/v1/datasets/"+ls.id+"/records", body, nil)
			if err != nil {
				return nil, fmt.Errorf("append %d: %w", i, err)
			}
			if code == http.StatusAccepted {
				break
			}
			if code != http.StatusServiceUnavailable {
				return nil, fmt.Errorf("append %d: status %d", i, code)
			}
			ps.retries++
			time.Sleep(time.Millisecond)
		}
		t1 := time.Now()
		for next := 0; next <= i; {
			select {
			case ev, ok := <-events:
				if !ok {
					return nil, fmt.Errorf("append %d: delta stream ended", i)
				}
				if ev.err != nil {
					return nil, fmt.Errorf("append %d: %w", i, ev.err)
				}
				deltas = append(deltas, ev.page.Deltas...)
				next = ev.page.Next
			case <-time.After(opTimeout):
				return nil, fmt.Errorf("append %d: deltas not visible after %v", i, opTimeout)
			}
		}
		t2 := time.Now()
		if rec != nil {
			j := ls.journal()
			j = j.sub(jBefore)
			rec.add(Span{Op: op, Layer: "service", Name: "append", Party: "client", Count: int64(bf.n)}, t0)
			rec.addDur(Span{Op: op, Layer: "service", Name: "ack", Party: "client"}, t0, t1.Sub(t0).Seconds())
			rec.add(Span{Op: op, Layer: "service", Name: "apply", Party: "client"}, t1)
			// The journal wrapper keeps totals; this span carries the
			// append's share of them (busy time, not an interval).
			rec.addDur(Span{Op: op, Layer: "journal", Name: "frames", Party: "service", Count: j.Records}, t1, j.RecordS+j.SyncS+j.CommitS)
		}
		ps.lat = append(ps.lat, t2.Sub(t0).Seconds())
		ps.ack = append(ps.ack, t1.Sub(t0).Seconds())
		ps.apply = append(ps.apply, t2.Sub(t1).Seconds())
	}
	if code, err := ls.call(http.MethodGet, "/v1/datasets/"+ls.id, nil, &ps.status); err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("dataset status: %d: %v", code, err)
	}
	ps.jst = ls.journal()
	if err := checkIngest(deltas, b.rel.truth, ps.status.Applied, len(b.batches)); err != nil {
		return nil, gateError{fmt.Errorf("correctness gate: %w", err)}
	}
	for _, d := range deltas {
		if b.rel.truth[match.Pair{I: d.I, J: d.J}] {
			ps.found++
		}
	}
	return ps, nil
}

// replayReads times the read the service makes on every append
// (dataset.OpenStream + ReadAll on the batch file), outside the pass.
func (b *ingestBench) replayReads() (float64, error) {
	start := time.Now()
	for _, bf := range b.batches {
		st, err := dataset.OpenStream(b.rel.schema, filepath.Join(b.dataDir, bf.name), dataset.StreamOptions{})
		if err != nil {
			return 0, err
		}
		_, err = st.ReadAll()
		st.Close()
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

func runIngest(c runConfig, p ingestParams) (*report, error) {
	rel, err := genRelations(p.Records, c.seed, p.Theta)
	if err != nil {
		return nil, err
	}
	b, err := newIngestBench(p, rel, c.work)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	records := rel.alice.Len() + rel.bob.Len()
	rep.params = map[string]any{"workload": p, "alice_records": rel.alice.Len(), "bob_records": rel.bob.Len(),
		"appends": len(b.batches), "true_matches": len(rel.truth)}

	runtime.GC()
	var setups []float64
	for i := 0; i < ingestSetupWarmup+ingestSetupReps; i++ {
		ls, d, err := b.start(false)
		if err != nil {
			return nil, err
		}
		ls.stop()
		if i >= ingestSetupWarmup {
			setups = append(setups, d)
		}
	}
	onePass := func(rec *Recorder) (*ingestPass, error) {
		// Every pass starts from a collected heap, as a fresh pprl-serve
		// process would.
		runtime.GC()
		ls, _, err := b.start(rec != nil)
		if err != nil {
			return nil, err
		}
		defer ls.stop()
		ops := b.ops
		ps, err := b.pass(ls, rec)
		rep.Attempted += len(b.batches)
		if err != nil {
			// A pass stops at its first failed append; the appends it
			// never sent count as failed too.
			rep.Failed += len(b.batches) - (b.ops - ops)
			rep.opFailed(err, isGate(err))
			return nil, nil
		}
		return ps, nil
	}

	// Whole passes only: every pass does the same work, so a run's
	// latencies do not depend on where the clock cut it. Another pass
	// starts while it is expected to end within the run's seconds. A
	// traced run alternates traced and untraced passes and makes at least
	// one of each.
	var rec *Recorder
	minPasses := 1
	if c.trace {
		rec = newRecorder()
		minPasses = 2
	}
	// One untimed pass lets the heap, the service's code paths and the
	// file system reach their steady state before anything is measured.
	if _, err := onePass(nil); err != nil {
		return nil, err
	}
	runtime.GC()
	start := time.Now()
	var untraced, traced []*ingestPass
	last := 0.0
	rss := 0.0 // VmHWM after the first pass, so the pass count does not move it
	for i := 0; i < minPasses || time.Since(start).Seconds()+last <= c.seconds; i++ {
		t0 := time.Now()
		var r *Recorder
		if c.trace && i%2 == 0 {
			r = rec
		}
		ps, err := onePass(r)
		if err != nil {
			return nil, err
		}
		last = time.Since(t0).Seconds()
		if i == 0 {
			rss = peakRSSMB()
		}
		switch {
		case ps == nil:
		case r != nil:
			traced = append(traced, ps)
		default:
			untraced = append(untraced, ps)
		}
	}

	if !c.trace {
		rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d service.New + listener + dataset registrations after %d discarded", len(setups), ingestSetupWarmup))
		ingestEndToEnd(rep, untraced, records)
		rep.set("peak_rss_mb", rss, "MB", "VmHWM of the benchmark process after its first pass")
		rep.fill(endToEnd)
		return rep, nil
	}
	if err := paillierProbe(rep, 1024); err != nil {
		return nil, err
	}
	read, err := b.replayReads()
	if err != nil {
		return nil, err
	}
	rep.spans = rec.Spans()
	ingestLayers(rep, traced, untraced, read, records, rel.truth)
	rep.fill(perLayer)
	return rep, nil
}

func allLat(ps []*ingestPass) []float64 {
	var out []float64
	for _, p := range ps {
		for _, l := range p.lat {
			out = append(out, l*1e3)
		}
	}
	return out
}

func ingestEndToEnd(rep *report, passes []*ingestPass, records int) {
	if len(passes) == 0 {
		rep.Correct = false
		return
	}
	lat := allLat(passes)
	rep.samples = lat
	var wall, purchased float64
	for _, ps := range passes {
		wall += ps.wall()
		purchased += float64(ps.status.Stats.Purchased)
	}
	n := len(lat)
	rep.set("op_p50_ms", median(lat), "ms", fmt.Sprintf("POST → deltas visible, median of %d appends in %d passes", n, len(passes)))
	// The tail is taken per pass, the whole-split ingest a user makes,
	// and the run reports its median pass: latency ramps with the
	// population inside every pass, and over a whole run the 10 slowest
	// appends are whichever pass met a slow spell of the host.
	tails := make([]float64, len(passes))
	pct := 0.0
	for i := range passes {
		tails[i], pct, _ = tail(allLat(passes[i : i+1]))
	}
	rep.set("op_tail_ms", median(tails), "ms", fmt.Sprintf("POST → deltas visible at p%.1f of each pass's %d appends (%d beyond), median of %d passes", pct, len(passes[0].lat), tailBeyond, len(passes)))
	rep.set("cmp_per_s", purchased/wall, "1/s", "plaintext comparisons purchased / summed append latency")
	rep.set("records_per_s", float64(records*len(passes))/wall, "1/s", "records appended / summed append latency")
}

func ingestLayers(rep *report, traced, untraced []*ingestPass, read float64, records int, truth map[match.Pair]bool) {
	if len(traced) == 0 {
		rep.Correct = false
		return
	}
	var wall, ack, apply, appends, retries, found float64
	var jst journalStats
	var st incremental.Stats
	for _, ps := range traced {
		wall += ps.wall()
		ack += sum(ps.ack)
		apply += sum(ps.apply)
		appends += float64(len(ps.lat))
		retries += float64(ps.retries)
		jst.Records += ps.jst.Records
		jst.Syncs += ps.jst.Syncs
		jst.RecordS += ps.jst.RecordS
		jst.SyncS += ps.jst.SyncS
		jst.CommitS += ps.jst.CommitS
		st = ps.status.Stats
		found += float64(ps.found)
	}
	passes := float64(len(traced))
	per := noteN("per append, mean over", len(traced), "traced passes")
	share := noteN("share of the summed append latency of", len(traced), "traced passes")
	rep.set("dataset.read_frac", read*passes/wall, "frac", share+"; the service's batch read replayed once per pass")
	rep.set("journal.records", float64(jst.Records)/appends, "count", per)
	rep.set("journal.syncs", float64(jst.Syncs)/appends, "count", per)
	rep.set("journal.record_frac", jst.RecordS/wall, "frac", share+"; appends without an fsync")
	rep.set("journal.sync_frac", jst.SyncS/wall, "frac", share+"; Begin, Sync and fsync-bearing appends")
	rep.set("journal.commit_frac", jst.CommitS/wall, "frac", share+"; RecordBatchCommit (append + fsync)")
	rep.set("service.ack_frac", ack/wall, "frac", share+"; POST → 202")
	rep.set("service.apply_frac", apply/wall, "frac", share+"; 202 → deltas visible")
	rep.set("service.busy_retries", retries/appends, "count", per+"; 503 responses")
	rep.set("incremental.purchased_per_record", float64(st.Purchased)/float64(records), "count", "last traced pass, dataset status")
	rep.set("incremental.deltas", float64(st.Deltas), "count", "per pass, last traced pass, dataset status")
	rep.set("incremental.bins", float64(st.Bins[0]+st.Bins[1]), "count", "both sides at the end of the last traced pass")
	rep.set("quality.recall", found/passes/float64(len(truth)), "ratio",
		fmt.Sprintf("union of deltas / %d true matches of the final relations; gated to equal them", len(truth)))
	if len(untraced) > 0 {
		rep.set("trace.overhead_frac", median(allLat(traced))/median(allLat(untraced))-1, "frac",
			fmt.Sprintf("traced/untraced − 1, median append latency of %d and %d passes", len(traced), len(untraced)))
	}
}
