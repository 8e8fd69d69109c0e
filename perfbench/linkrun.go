package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"pprl/internal/match"
)

// The two session workloads. secure-link is the deployment the ROADMAP
// names as its headline, with the allowance sized so a run holds enough
// sessions for a median and a tail; front-link is full paper scale with
// a handful of purchases, so the non-crypto front end does most of the
// work. front-link runs by name only: BENCHMARK.json leaves it out as
// too unsteady to gate on (workloads.json says why).
var (
	secureLink = linkParams{Records: 6000, K: 32, Theta: 0.05, KeyBits: 1024, Allowance: 100}
	frontLink  = linkParams{Records: 30162, K: 4, Theta: 0.05, KeyBits: 1024, Allowance: 8}
)

const (
	// A set-up takes about a tenth of a millisecond, and its first few
	// hundred repetitions in a process run slower while code and heap
	// warm up. A run discards setupWarmup of them and reports the median
	// of the next setupReps.
	setupWarmup = 1000
	setupReps   = 1001
	// minOps keeps the tail rule defined: with tailBeyond+1 samples the
	// tail percentile exists.
	minOps = tailBeyond + 1
	// minCycles is the least number of traced/untraced/in-memory session
	// triples a traced run makes.
	minCycles = 2
)

// gateError marks an operation whose output failed a correctness gate.
type gateError struct{ error }

func isGate(err error) bool {
	var g gateError
	return errors.As(err, &g)
}

func noteN(pre string, n int, post string) string { return fmt.Sprintf("%s %d %s", pre, n, post) }

// tracedLink is what a traced session and its replayed query-side steps
// leave for the per-layer metrics. It holds counts only: keeping the
// sessions' views alive would grow the heap, and with it every later
// session's garbage-collection work, over the run.
type tracedLink struct {
	op                                int
	wall, efficiency                  float64
	inv, matches, wire                int64
	found, groups                     int
	classPairs, unknown, blockMatched int64
	jst                               journalStats
}

func runLink(c runConfig, p linkParams) (*report, error) {
	rel, err := genRelations(p.Records, c.seed, p.Theta)
	if err != nil {
		return nil, err
	}
	b, err := newLinkBench(p, rel, c.work)
	if err != nil {
		return nil, err
	}
	defer b.close()
	rep := newReport()
	rep.params = map[string]any{"workload": p, "alice_records": rel.alice.Len(), "bob_records": rel.bob.Len(), "true_matches": len(rel.truth)}

	// Collect the input generator's garbage before anything is timed.
	runtime.GC()
	var setups []float64
	for i := 0; i < setupWarmup+setupReps; i++ {
		d, err := b.setup()
		if err != nil {
			return nil, err
		}
		if i >= setupWarmup {
			setups = append(setups, d)
		}
	}

	op := 0
	do := func(rec *Recorder, tcp bool) (int, *linkOutcome) {
		id := op
		op++
		rep.Attempted++
		// Every session starts from a collected heap, as in a fresh
		// pprl-party process, so no session pays for its predecessor's
		// garbage.
		runtime.GC()
		o, err := b.run(rec, id, tcp)
		if err != nil {
			rep.opFailed(err, isGate(err))
			if tcp {
				// Fresh listeners: the failed session may have left
				// connections in the old ones' backlogs.
				if _, err := b.setup(); err != nil {
					rep.opFailed(err, false)
				}
			}
			return id, nil
		}
		return id, o
	}
	// One untimed session lets the heap and the runtime reach their
	// steady state before anything is measured.
	do(nil, true)
	runtime.GC()

	start := time.Now()
	if !c.trace {
		rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups after %d discarded", len(setups), setupWarmup))
		// Only the numbers are kept, for the reason tracedLink gives.
		var walls []float64
		var inv int64
		for i := 0; time.Since(start).Seconds() < c.seconds || i < minOps; i++ {
			if _, o := do(nil, true); o != nil {
				walls = append(walls, o.wall*1e3)
				inv += o.res.Invocations
			}
		}
		linkEndToEnd(rep, walls, inv, b)
		rep.fill(endToEnd)
		return rep, nil
	}

	rec := newRecorder()
	var traced []tracedLink
	var plain, mem []float64
	for cycle := 0; time.Since(start).Seconds() < c.seconds || cycle < minCycles; cycle++ {
		if id, o := do(rec, true); o != nil {
			block, groups, err := b.replayQuery(rec, id, o.res)
			if err != nil {
				return nil, err
			}
			traced = append(traced, tracedLink{
				op: id, wall: o.wall, efficiency: o.res.BlockingEfficiency,
				inv: o.res.Invocations, matches: int64(len(o.res.Matches)), wire: o.wire,
				found: o.found, groups: groups,
				classPairs: int64(len(block.R.Classes) * len(block.S.Classes)),
				unknown:    block.UnknownPairs, blockMatched: block.MatchedPairs,
				jst: o.jst,
			})
		}
		if _, o := do(nil, true); o != nil {
			plain = append(plain, o.wall)
		}
		if _, o := do(nil, false); o != nil {
			mem = append(mem, o.wall)
		}
	}
	if err := paillierProbe(rep, p.KeyBits); err != nil {
		return nil, err
	}
	rep.spans = rec.Spans()
	linkLayers(rep, rep.spans, traced, plain, mem, rel.truth)
	rep.fill(perLayer)
	return rep, nil
}

// linkEndToEnd turns the untraced sessions into the end-to-end metrics.
// walls are the session wall times in milliseconds and inv their
// purchased comparisons.
func linkEndToEnd(rep *report, walls []float64, inv int64, b *linkBench) {
	if len(walls) == 0 {
		rep.Correct = false
		return
	}
	rep.samples = walls
	total := sum(walls) / 1e3
	n := len(walls)
	rep.set("op_p50_ms", median(walls), "ms", noteN("session wall time, median of", n, "sessions"))
	t, pct, _ := tail(walls)
	rep.set("op_tail_ms", t, "ms", fmt.Sprintf("session wall time at p%.1f of %d sessions (%d beyond)", pct, n, tailBeyond))
	rep.set("cmp_per_s", float64(inv)/total, "1/s", noteN("purchased secure comparisons over", n, "sessions' wall time"))
	rep.set("records_per_s", float64(n*b.dataLen())/total, "1/s", noteN("records read by both holders over", n, "sessions' wall time"))
	rep.set("peak_rss_mb", peakRSSMB(), "MB", "VmHWM of the benchmark process")
}

// linkLayers derives the per-layer metrics of the traced sessions from
// their spans. Shares are of the traced sessions' summed wall time.
func linkLayers(rep *report, spans []Span, traced []tracedLink, plain, mem []float64, truth map[match.Pair]bool) {
	n := len(traced)
	if n == 0 {
		rep.Correct = false
		return
	}
	byOp := map[int][]Span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	var (
		wall, read, anon, viewWait, blockS, orderS      float64
		aliceBusy, bobBusy, queryBusy, queryWait, phase float64
		classes, viewBytes, classPairs, unknown, groups float64
		efficiency, inv, wire, smcMatches, encs, decs   float64
		found                                           float64
		jRecords, jSyncs, jRecordS, jSyncS, jCommitS    float64
		tracedWalls                                     []float64
	)
	kindBytes := map[string]float64{}
	kindMsgs := map[string]float64{}
	for _, t := range traced {
		ss := byOp[t.op]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		wall += t.wall
		tracedWalls = append(tracedWalls, t.wall)
		a := sessionSMC(ss)
		aliceBusy += a.aliceBusy
		bobBusy += a.bobBusy
		queryBusy += a.queryBusy
		queryWait += a.queryWait
		phase += a.phase
		for _, s := range ss {
			switch {
			case s.Layer == "dataset":
				read += s.Dur
			case s.Layer == "anonymize":
				anon += s.Dur
				classes += float64(s.Count)
			case s.Layer == "blocking":
				blockS += s.Dur
			case s.Layer == "heuristic":
				orderS += s.Dur
			case s.Layer == "smc" && strings.HasPrefix(s.Name, "send."):
				kind := strings.SplitN(strings.TrimPrefix(s.Name, "send."), ">", 2)[0]
				kindBytes[kind] += float64(s.Bytes)
				kindMsgs[kind]++
				if kind == "view" {
					viewBytes += float64(s.Bytes)
				}
				if kind == "shares" || kind == "result" {
					encs += float64(s.Count)
				}
			case s.Layer == "smc" && s.Party == "query" && strings.HasPrefix(s.Name, "recv.view"):
				viewWait += s.Dur
			case s.Layer == "smc" && s.Party == "query" && strings.HasPrefix(s.Name, "recv.result"):
				decs += float64(s.Count)
			}
		}
		classPairs += float64(t.classPairs)
		unknown += float64(t.unknown)
		efficiency += t.efficiency
		groups += float64(t.groups)
		inv += float64(t.inv)
		found += float64(t.found)
		wire += float64(t.wire)
		smcMatches += float64(t.matches - t.blockMatched)
		jRecords += float64(t.jst.Records)
		jSyncs += float64(t.jst.Syncs)
		jRecordS += t.jst.RecordS
		jSyncS += t.jst.SyncS
		jCommitS += t.jst.CommitS
	}
	fn := float64(n)
	per := noteN("per session, mean of", n, "traced sessions")
	share := noteN("share of the wall time of", n, "traced sessions")
	rep.set("dataset.read_frac", read/wall, "frac", share+"; both holders' dataset.ReadCSV")
	rep.set("anonymize.busy_frac", anon/wall, "frac", share+"; both holders' Anonymize")
	rep.set("anonymize.classes", classes/fn, "count", per+"; both views")
	rep.set("session.view_bytes", viewBytes/fn, "bytes", per+"; both views")
	rep.set("session.view_wait_frac", viewWait/wall, "frac", share+"; query blocked in Recv for views")
	if mp, mm := median(plain), median(mem); len(plain) > 0 && len(mem) > 0 {
		rep.set("session.transport_frac", (mp-mm)/mp, "frac",
			fmt.Sprintf("(TCP − in-memory)/TCP, medians of %d and %d untraced sessions", len(plain), len(mem)))
		rep.set("trace.overhead_frac", median(tracedWalls)/mp-1, "frac",
			fmt.Sprintf("traced/untraced − 1, medians of %d and %d TCP sessions", n, len(plain)))
	}
	rep.set("blocking.busy_frac", blockS/wall, "frac", share+"; blocking.Block replayed on the returned views")
	rep.set("blocking.class_pairs", classPairs/fn, "count", per)
	rep.set("blocking.unknown_pairs", unknown/fn, "count", per)
	rep.set("blocking.efficiency", efficiency/fn, "ratio", per)
	rep.set("heuristic.order_frac", orderS/wall, "frac", share+"; heuristic.Order replayed")
	rep.set("heuristic.group_pairs", groups/fn, "count", per)
	rep.set("smc.alice_busy_frac", aliceBusy/wall, "frac", share+"; compare request received → shares sent")
	rep.set("smc.bob_busy_frac", bobBusy/wall, "frac", share+"; shares received → result sent")
	rep.set("smc.query_busy_frac", queryBusy/wall, "frac", share+"; query outside Send/Recv in the SMC phase")
	rep.set("smc.query_wait_frac", queryWait/wall, "frac", share+"; query blocked in Recv for results")
	rep.set("smc.phase_frac", phase/wall, "frac", share+"; first compare sent → last result received")
	for _, k := range msgKinds {
		name := kindName(k)
		rep.set("smc.bytes."+name, kindBytes[name]/fn, "bytes", per+"; all senders")
		rep.set("smc.msgs."+name, kindMsgs[name]/fn, "count", per+"; all senders")
	}
	if inv > 0 {
		rep.set("smc.wire_bytes_per_cmp", wire/inv, "bytes", "Σ Conn.Bytes() over six conn ends / purchased comparisons")
		rep.set("smc.match_yield", smcMatches/inv, "ratio", "SMC matches / purchased comparisons")
		rep.set("paillier.encryptions_per_cmp", encs/inv, "count", "ciphertexts in shares and result messages / purchased comparisons")
		rep.set("paillier.decryptions_per_cmp", decs/inv, "count", "ciphertexts in result messages / purchased comparisons")
	}
	rep.set("quality.recall", found/fn/float64(len(truth)), "ratio",
		fmt.Sprintf("true matches found / %d true matches; precision 1.0 is gated", len(truth)))
	rep.set("journal.records", jRecords/fn, "count", per)
	rep.set("journal.syncs", jSyncs/fn, "count", per)
	rep.set("journal.record_frac", jRecordS/wall, "frac", share+"; appends without an fsync")
	rep.set("journal.sync_frac", jSyncS/wall, "frac", share+"; Begin, Sync and fsync-bearing appends")
	rep.set("journal.commit_frac", jCommitS/wall, "frac", share)
}

// smcTimes are one session's SMC-phase busy and wait times.
type smcTimes struct {
	aliceBusy, bobBusy, queryBusy, queryWait, phase float64
}

// sessionSMC derives the SMC-phase times of one session from its conn
// spans, sorted by start. Each party drives its conn ends from one
// goroutine, so its spans form one sequence.
func sessionSMC(ss []Span) smcTimes {
	var t smcTimes
	var aliceReq, bobShares float64 = -1, -1
	phaseStart, phaseEnd := -1.0, -1.0
	for _, s := range ss {
		if s.Layer != "smc" {
			continue
		}
		end := s.Start + s.Dur
		switch {
		case s.Party == "alice" && s.Name == "recv.compare<query":
			aliceReq = end
		case s.Party == "alice" && s.Name == "send.shares>bob" && aliceReq >= 0:
			t.aliceBusy += end - aliceReq
			aliceReq = -1
		case s.Party == "bob" && s.Name == "recv.shares<alice":
			bobShares = end
		case s.Party == "bob" && s.Name == "send.result>query" && bobShares >= 0:
			t.bobBusy += end - bobShares
			bobShares = -1
		case s.Party == "query" && s.Name == "send.compare>alice" && phaseStart < 0:
			phaseStart = s.Start
		case s.Party == "query" && s.Name == "recv.result<bob":
			t.queryWait += s.Dur
			phaseEnd = end
		}
	}
	if phaseStart < 0 || phaseEnd < phaseStart {
		return t
	}
	t.phase = phaseEnd - phaseStart
	io := 0.0
	for _, s := range ss {
		if s.Layer == "smc" && s.Party == "query" && s.Start >= phaseStart && s.Start+s.Dur <= phaseEnd {
			io += s.Dur
		}
	}
	t.queryBusy = t.phase - io
	return t
}
