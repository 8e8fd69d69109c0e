package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/cliutil"
	"pprl/internal/distance"
	"pprl/internal/heuristic"
	"pprl/internal/journal"
	"pprl/internal/session"
	"pprl/internal/smc"
)

// linkParams configure a three-party session workload. Everything not
// listed takes pprl-party's defaults: max-entropy anonymization,
// minAvgFirst ordering, packed results, shuffled attributes, and a
// journal at the default fsync cadence.
type linkParams struct {
	Records   int     `json:"adult_records"` // Adult draw before the D1/D2 split
	K         int     `json:"k"`
	Theta     float64 `json:"theta"`
	KeyBits   int     `json:"key_bits"`
	Allowance int64   `json:"allowance"` // absolute secure comparisons per session
}

// linkBench holds what a session workload sets up once per run: the
// holders' CSVs on disk and the two listeners (the querying party's and
// Alice's peer link).
type linkBench struct {
	p            linkParams
	rel          *relations
	dir          string
	aPath, bPath string
	qLn, peerLn  net.Listener
}

// linkOutcome is one session as the benchmark saw it.
type linkOutcome struct {
	wall  float64 // seconds from the holders' CSV reads to all three parties returning
	res   *session.QueryResult
	wire  int64        // Σ Conn.Bytes() over all six conn ends
	found int          // true matches among res.Matches
	jst   journalStats // traced sessions only
}

func newLinkBench(p linkParams, rel *relations, dir string) (*linkBench, error) {
	b := &linkBench{p: p, rel: rel, dir: dir,
		aPath: filepath.Join(dir, "alice.csv"), bPath: filepath.Join(dir, "bob.csv")}
	if err := writeCSV(rel.alice, b.aPath); err != nil {
		return nil, err
	}
	if err := writeCSV(rel.bob, b.bPath); err != nil {
		return nil, err
	}
	return b, nil
}

// setup does what every pprl-party process does before its first
// session: load the schema (each of the three parties) and bind the two
// listeners. It keeps the last pair of listeners for the sessions and
// returns the time of one set-up.
func (b *linkBench) setup() (float64, error) {
	b.close()
	start := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := cliutil.LoadSchemaOrAdult(""); err != nil {
			return 0, err
		}
	}
	q, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	p, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		q.Close()
		return 0, err
	}
	d := time.Since(start).Seconds()
	b.qLn, b.peerLn = q, p
	return d, nil
}

func (b *linkBench) close() {
	if b.qLn != nil {
		b.qLn.Close()
		b.peerLn.Close()
		b.qLn, b.peerLn = nil, nil
	}
}

// partyConns tracks every conn end of one session so a failure in one
// party can unblock the others, and so the wire bytes can be summed. An
// end added after a failure is closed at once.
type partyConns struct {
	mu     sync.Mutex
	conns  []smc.Conn
	failed bool
}

func (pc *partyConns) add(c smc.Conn) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.conns = append(pc.conns, c)
	if pc.failed {
		c.Close()
	}
}

// closeAll closes every end; after a failure it also closes ends added
// later.
func (pc *partyConns) closeAll(failed bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.failed = pc.failed || failed
	for _, c := range pc.conns {
		c.Close()
	}
}

func (pc *partyConns) bytes() int64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var n int64
	for _, c := range pc.conns {
		n += c.Bytes()
	}
	return n
}

// sessionTimeout bounds one session so a stuck party fails the operation
// instead of hanging the run.
const sessionTimeout = 150 * time.Second

// run executes one three-party session, over loopback TCP when tcp is
// set and over smc.NewConnPair otherwise. rec, when non-nil, wraps every
// conn end and the anonymizers and times the holders' reads.
func (b *linkBench) run(rec *Recorder, op int, tcp bool) (*linkOutcome, error) {
	var pc partyConns
	wrap := func(c smc.Conn, party, peer string) smc.Conn {
		pc.add(c)
		if rec == nil {
			return c
		}
		return &connRecorder{Conn: c, rec: rec, op: op, party: party, peer: peer}
	}
	// In-memory ends exist before the parties start; TCP ends are made
	// by the parties themselves, exactly as pprl-party does.
	var qa, qb, aq, ap, bq, bp smc.Conn
	if !tcp {
		qa, aq = smc.NewConnPair()
		qb, bq = smc.NewConnPair()
		ap, bp = smc.NewConnPair()
		qa, aq = wrap(qa, "query", "alice"), wrap(aq, "alice", "query")
		qb, bq = wrap(qb, "query", "bob"), wrap(bq, "bob", "query")
		ap, bp = wrap(ap, "alice", "bob"), wrap(bp, "bob", "alice")
	} else {
		deadline := time.Now().Add(sessionTimeout)
		b.qLn.(*net.TCPListener).SetDeadline(deadline)
		b.peerLn.(*net.TCPListener).SetDeadline(deadline)
	}
	jpath := filepath.Join(b.dir, fmt.Sprintf("session-%d.wal", op))
	defer os.Remove(jpath)

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		res  *session.QueryResult
		jst  journalStats
	)
	fail := func(party string, err error) {
		mu.Lock()
		errs = append(errs, fmt.Errorf("%s: %w", party, err))
		mu.Unlock()
		pc.closeAll(true)
		if tcp {
			// Unblock a party still waiting in Accept.
			b.qLn.(*net.TCPListener).SetDeadline(time.Now())
			b.peerLn.(*net.TCPListener).SetDeadline(time.Now())
		}
	}
	dial := func(addr net.Addr, party, peer string) (smc.Conn, error) {
		c, err := net.DialTimeout("tcp", addr.String(), sessionTimeout)
		if err != nil {
			return nil, err
		}
		c.SetDeadline(time.Now().Add(sessionTimeout))
		return wrap(smc.NewNetConn(c), party, peer), nil
	}
	accept := func(ln net.Listener, party, peer string) (smc.Conn, error) {
		c, err := ln.Accept()
		if err != nil {
			return nil, err
		}
		c.SetDeadline(time.Now().Add(sessionTimeout))
		return wrap(smc.NewNetConn(c), party, peer), nil
	}
	holder := func(role, path string, query, peer smc.Conn) error {
		start := time.Now()
		data, err := readCSV(b.rel.schema, path)
		rec.add(Span{Op: op, Layer: "dataset", Name: "read", Party: role}, start)
		if err != nil {
			return err
		}
		if tcp {
			if query, err = dial(b.qLn.Addr(), role, "query"); err != nil {
				return err
			}
			if err := session.Hello(query, role); err != nil {
				return err
			}
			if role == session.RoleAlice {
				peer, err = accept(b.peerLn, role, "bob")
			} else {
				peer, err = dial(b.peerLn.Addr(), role, "alice")
			}
			if err != nil {
				return err
			}
		}
		var anon anonymize.Anonymizer = anonymize.NewMaxEntropy()
		if rec != nil {
			anon = &anonRecorder{Anonymizer: anon, rec: rec, op: op, party: role}
		}
		cfg := session.HolderConfig{Data: data, K: b.p.K, Anonymizer: anon}
		return session.RunHolder(query, peer, cfg, role == session.RoleAlice)
	}
	query := func(alice, bob smc.Conn) error {
		jw, err := journal.Create(jpath, journal.Options{})
		if err != nil {
			return err
		}
		defer jw.Close()
		var sink journal.Sink = jw
		var jr *journalRecorder
		if rec != nil {
			jr = &journalRecorder{inner: jw}
			sink = jr
		}
		if tcp {
			for alice == nil || bob == nil {
				c, err := accept(b.qLn, "query", "")
				if err != nil {
					return err
				}
				role, err := session.Identify(c)
				if err != nil {
					return err
				}
				if cr, ok := c.(*connRecorder); ok {
					cr.peer = role
				}
				switch {
				case role == session.RoleAlice && alice == nil:
					alice = c
				case role == session.RoleBob && bob == nil:
					bob = c
				default:
					return fmt.Errorf("duplicate hello for role %q", role)
				}
			}
		}
		r, err := session.RunQuery(alice, bob, session.QueryConfig{
			Schema:            b.rel.schema,
			QIDs:              b.rel.qids,
			Theta:             b.p.Theta,
			Allowance:         b.p.Allowance,
			KeyBits:           b.p.KeyBits,
			ShuffleAttributes: true,
			Packing:           smc.PackingPacked,
			Journal:           sink,
		})
		if err != nil {
			return err
		}
		if err := jw.Close(); err != nil {
			return err
		}
		mu.Lock()
		res = r
		if jr != nil {
			jst = jr.snapshot()
		}
		mu.Unlock()
		return nil
	}

	start := time.Now()
	wg.Add(3)
	go func() {
		defer wg.Done()
		if err := holder(session.RoleAlice, b.aPath, aq, ap); err != nil {
			fail("alice", err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := holder(session.RoleBob, b.bPath, bq, bp); err != nil {
			fail("bob", err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := query(qa, qb); err != nil {
			fail("query", err)
		}
	}()
	wg.Wait()
	wall := time.Since(start).Seconds()
	rec.add(Span{Op: op, Layer: "session", Name: transportName(tcp)}, start)
	wire := pc.bytes()
	pc.closeAll(false)
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	found, err := checkLink(res.Matches, b.rel.truth, res.Invocations, res.Allowance, res.UnknownPairs)
	if err != nil {
		return nil, gateError{fmt.Errorf("correctness gate: %w", err)}
	}
	return &linkOutcome{wall: wall, res: res, wire: wire, found: found, jst: jst}, nil
}

func transportName(tcp bool) string {
	if tcp {
		return "op.tcp"
	}
	return "op.mem"
}

// replayQuery times the querying party's two local steps, blocking and
// ordering, by calling them again on the views the session returned:
// RunQuery makes exactly these calls on exactly these views.
func (b *linkBench) replayQuery(rec *Recorder, op int, res *session.QueryResult) (*blocking.Result, int, error) {
	pos, err := b.rel.schema.Resolve(b.rel.qids)
	if err != nil {
		return nil, 0, err
	}
	rule, err := blocking.UniformRule(distance.MetricsFor(b.rel.schema, pos), b.p.Theta)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	block, err := blocking.Block(res.AliceView, res.BobView, rule)
	rec.add(Span{Op: op, Layer: "blocking", Name: "block", Party: "query", Count: block.UnknownPairs}, start)
	if err != nil {
		return nil, 0, err
	}
	start = time.Now()
	ordered := heuristic.Order(block, rule, heuristic.MinAvgFirst{}, false)
	rec.add(Span{Op: op, Layer: "heuristic", Name: "order", Party: "query", Count: int64(len(ordered))}, start)
	return block, len(ordered), nil
}

// dataLen is the records both holders read per session.
func (b *linkBench) dataLen() int { return b.rel.alice.Len() + b.rel.bob.Len() }
