package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"pprl/internal/anonymize"
	"pprl/internal/dataset"
	"pprl/internal/journal"
	"pprl/internal/smc"
)

// Span is one timed call at a layer boundary. Spans of one operation (a
// session or an append) share Op; Party names the caller (query, alice,
// bob, client, service).
type Span struct {
	Op    int     `json:"op"`
	Layer string  `json:"layer"`
	Name  string  `json:"name"`
	Party string  `json:"party,omitempty"`
	Start float64 `json:"start_s"` // seconds since the recorder was made
	Dur   float64 `json:"dur_s"`
	Bytes int64   `json:"bytes,omitempty"`
	Count int64   `json:"count,omitempty"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, which is how untraced operations run through the same
// code.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// add records a span that started at start and ends now.
func (r *Recorder) add(s Span, start time.Time) {
	r.addDur(s, start, time.Since(start).Seconds())
}

// addDur records a span that started at start and lasted dur seconds.
func (r *Recorder) addDur(s Span, start time.Time, dur float64) {
	if r == nil {
		return
	}
	s.Start = start.Sub(r.t0).Seconds()
	s.Dur = dur
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a snapshot of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kindName names an smc message kind for spans and per-kind metrics.
func kindName(k smc.MsgKind) string {
	switch k {
	case smc.MsgPublicKey:
		return "public_key"
	case smc.MsgCompare:
		return "compare"
	case smc.MsgShares:
		return "shares"
	case smc.MsgResult:
		return "result"
	case smc.MsgShutdown:
		return "shutdown"
	case smc.MsgHello:
		return "hello"
	case smc.MsgParams:
		return "params"
	case smc.MsgView:
		return "view"
	case smc.MsgEncodings:
		return "encodings"
	}
	return fmt.Sprintf("kind%d", int(k))
}

// msgKinds lists every kind a session without the triage tier sends, in
// protocol order.
var msgKinds = []smc.MsgKind{
	smc.MsgHello, smc.MsgParams, smc.MsgView, smc.MsgPublicKey,
	smc.MsgCompare, smc.MsgShares, smc.MsgResult, smc.MsgShutdown,
}

// connRecorder wraps one end of an smc.Conn and records a span per Send
// and Recv: the message kind, the party holding this end and, for sends,
// the bytes the wrapped transport counted for the message. Each end is
// driven by one goroutine, as every party in the protocol does, so the
// Bytes() difference around a Send belongs to that message.
type connRecorder struct {
	smc.Conn
	rec   *Recorder
	op    int
	party string
	peer  string
}

func (c *connRecorder) Send(m *smc.Message) error {
	before := c.Conn.Bytes()
	start := time.Now()
	err := c.Conn.Send(m)
	c.rec.add(Span{Op: c.op, Layer: "smc", Name: "send." + kindName(m.Kind) + ">" + c.peer,
		Party: c.party, Bytes: c.Conn.Bytes() - before, Count: ciphertexts(m)}, start)
	return err
}

func (c *connRecorder) Recv() (*smc.Message, error) {
	start := time.Now()
	m, err := c.Conn.Recv()
	name := "recv.error<" + c.peer
	var n int64
	if m != nil {
		name = "recv." + kindName(m.Kind) + "<" + c.peer
		n = ciphertexts(m)
	}
	c.rec.add(Span{Op: c.op, Layer: "smc", Name: name, Party: c.party, Count: n}, start)
	return m, err
}

// ciphertexts counts the Paillier ciphertexts a message carries.
func ciphertexts(m *smc.Message) int64 {
	return int64(len(m.Sq) + len(m.Lin) + len(m.Res))
}

// anonRecorder times each Anonymize call and records the class count.
type anonRecorder struct {
	anonymize.Anonymizer
	rec   *Recorder
	op    int
	party string
}

func (a *anonRecorder) Anonymize(d *dataset.Dataset, qids []int, k int) (*anonymize.Result, error) {
	start := time.Now()
	res, err := a.Anonymizer.Anonymize(d, qids, k)
	var classes int64
	if res != nil {
		classes = int64(len(res.Classes))
	}
	a.rec.add(Span{Op: a.op, Layer: "anonymize", Name: "anonymize", Party: a.party, Count: classes}, start)
	return res, err
}

// journalSyncEvery mirrors the journal writer's default fsync cadence
// (journal.Options{SyncEvery: 0}): every 64th verdict or batch-mark frame
// carries an fsync inside the call that appended it. The wrapper cannot
// see that fsync, so it replays the cadence to attribute the call's time
// to journal.sync rather than journal.record.
const journalSyncEvery = 64

// journalStats accumulates journal calls. Per-frame spans would number in
// the millions on live-ingest, so the wrapper keeps totals and the
// workload turns them into one span per operation.
type journalStats struct {
	Records  int64   // verdict and batch-mark frames appended
	Syncs    int64   // fsyncs: explicit, cadence, Begin and commit
	RecordS  float64 // time in appends that carried no fsync
	SyncS    float64 // time in Sync, Begin and cadence-fsync appends
	Commits  int64
	CommitS  float64 // time in RecordBatchCommit (append + fsync)
	unsynced int
}

func (s *journalStats) sub(o journalStats) journalStats {
	return journalStats{
		Records: s.Records - o.Records, Syncs: s.Syncs - o.Syncs,
		RecordS: s.RecordS - o.RecordS, SyncS: s.SyncS - o.SyncS,
		Commits: s.Commits - o.Commits, CommitS: s.CommitS - o.CommitS,
	}
}

// journalRecorder wraps a journal.BatchSink (a *journal.Writer satisfies
// both Sink and BatchSink). The incremental engine calls it from the
// dataset's single drainer goroutine and the querying party from its one
// goroutine, but the workload reads the totals from another goroutine,
// hence the mutex.
type journalRecorder struct {
	inner journal.BatchSink
	mu    sync.Mutex
	st    journalStats
}

func (j *journalRecorder) snapshot() journalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

func (j *journalRecorder) frame(start time.Time) {
	d := time.Since(start).Seconds()
	j.mu.Lock()
	j.st.Records++
	j.st.unsynced++
	if j.st.unsynced >= journalSyncEvery {
		j.st.unsynced = 0
		j.st.Syncs++
		j.st.SyncS += d
	} else {
		j.st.RecordS += d
	}
	j.mu.Unlock()
}

func (j *journalRecorder) synced(start time.Time) {
	d := time.Since(start).Seconds()
	j.mu.Lock()
	j.st.unsynced = 0
	j.st.Syncs++
	j.st.SyncS += d
	j.mu.Unlock()
}

func (j *journalRecorder) Begin(m journal.Manifest) ([]journal.Verdict, error) {
	start := time.Now()
	v, err := j.inner.Begin(m)
	j.synced(start)
	return v, err
}

func (j *journalRecorder) Record(i, k int, matched bool) error {
	start := time.Now()
	err := j.inner.Record(i, k, matched)
	j.frame(start)
	return err
}

func (j *journalRecorder) RecordTier(i, k int, matched bool) error {
	start := time.Now()
	err := j.inner.RecordTier(i, k, matched)
	j.frame(start)
	return err
}

func (j *journalRecorder) Sync() error {
	start := time.Now()
	err := j.inner.Sync()
	j.synced(start)
	return err
}

func (j *journalRecorder) RecordBatch(m journal.BatchMark) error {
	start := time.Now()
	err := j.inner.RecordBatch(m)
	j.frame(start)
	return err
}

func (j *journalRecorder) RecordBatchCommit(c journal.BatchCommit) error {
	start := time.Now()
	err := j.inner.RecordBatchCommit(c)
	d := time.Since(start).Seconds()
	j.mu.Lock()
	j.st.unsynced = 0
	j.st.Syncs++
	j.st.Commits++
	j.st.CommitS += d
	j.mu.Unlock()
	return err
}
