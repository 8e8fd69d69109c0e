package main

import (
	"crypto/rand"
	"math/big"
	"time"

	"pprl/internal/paillier"
)

// endToEnd lists the metrics every untraced run reports. They are
// workload-neutral so that every workload reports each of them: an
// operation is one three-party session on the link workloads and one
// append (POST to its deltas being visible) on live-ingest.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"cmp_per_s", "1/s"},
	{"records_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run reports. Busy and wait
// times are shares of the traced operations' summed wall time (frac), so
// a layer a workload bypasses, or runs only inside the incremental engine
// where no public boundary exists, reads an honest 0. Counts are per
// operation unless the name says otherwise.
var perLayer = []struct{ name, unit string }{
	{"dataset.read_frac", "frac"},
	{"anonymize.busy_frac", "frac"},
	{"anonymize.classes", "count"},
	{"session.view_bytes", "bytes"},
	{"session.view_wait_frac", "frac"},
	{"session.transport_frac", "frac"},
	{"blocking.busy_frac", "frac"},
	{"blocking.class_pairs", "count"},
	{"blocking.unknown_pairs", "count"},
	{"blocking.efficiency", "ratio"},
	{"heuristic.order_frac", "frac"},
	{"heuristic.group_pairs", "count"},
	{"smc.alice_busy_frac", "frac"},
	{"smc.bob_busy_frac", "frac"},
	{"smc.query_busy_frac", "frac"},
	{"smc.query_wait_frac", "frac"},
	{"smc.phase_frac", "frac"},
	{"smc.bytes.hello", "bytes"},
	{"smc.bytes.params", "bytes"},
	{"smc.bytes.view", "bytes"},
	{"smc.bytes.public_key", "bytes"},
	{"smc.bytes.compare", "bytes"},
	{"smc.bytes.shares", "bytes"},
	{"smc.bytes.result", "bytes"},
	{"smc.bytes.shutdown", "bytes"},
	{"smc.msgs.hello", "count"},
	{"smc.msgs.params", "count"},
	{"smc.msgs.view", "count"},
	{"smc.msgs.public_key", "count"},
	{"smc.msgs.compare", "count"},
	{"smc.msgs.shares", "count"},
	{"smc.msgs.result", "count"},
	{"smc.msgs.shutdown", "count"},
	{"smc.wire_bytes_per_cmp", "bytes"},
	{"smc.match_yield", "ratio"},
	{"paillier.encryptions_per_cmp", "count"},
	{"paillier.decryptions_per_cmp", "count"},
	{"paillier.keygen_s", "s"},
	{"paillier.encrypt_us", "us"},
	{"paillier.decrypt_us", "us"},
	{"journal.records", "count"},
	{"journal.syncs", "count"},
	{"journal.record_frac", "frac"},
	{"journal.sync_frac", "frac"},
	{"journal.commit_frac", "frac"},
	{"service.ack_frac", "frac"},
	{"service.apply_frac", "frac"},
	{"service.busy_retries", "count"},
	{"incremental.purchased_per_record", "count"},
	{"incremental.deltas", "count"},
	{"incremental.bins", "count"},
	{"quality.recall", "ratio"},
	{"trace.overhead_frac", "frac"},
}

// fill sets every listed metric the workload did not measure to 0, so a
// run always reports the full list.
func (r *report) fill(list []struct{ name, unit string }) {
	for _, m := range list {
		if _, ok := r.Metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit, "not exercised by this workload")
		}
	}
}

// probeSamples is how many standalone encryptions and decryptions the
// Paillier probe times; probeKeys how many keys it generates.
const (
	probeSamples = 40
	probeKeys    = 5
)

// paillierProbe times the public Paillier calls at the deployment key
// size: key generation (the querying party pays one per session),
// encryption and decryption. It runs standalone in every traced run, so
// it reads the same layer whichever workload is traced.
func paillierProbe(rep *report, bits int) error {
	var keygen, enc, dec []float64
	var sk *paillier.PrivateKey
	for i := 0; i < probeKeys; i++ {
		start := time.Now()
		k, err := paillier.GenerateKey(rand.Reader, bits)
		if err != nil {
			return err
		}
		keygen = append(keygen, time.Since(start).Seconds())
		sk = k
	}
	m := big.NewInt(123456789)
	for i := 0; i < probeSamples; i++ {
		start := time.Now()
		ct, err := sk.PublicKey.Encrypt(rand.Reader, m)
		if err != nil {
			return err
		}
		enc = append(enc, time.Since(start).Seconds()*1e6)
		start = time.Now()
		if _, err := sk.Decrypt(ct); err != nil {
			return err
		}
		dec = append(dec, time.Since(start).Seconds()*1e6)
	}
	rep.set("paillier.keygen_s", median(keygen), "s", noteN("median of", len(keygen), "standalone keys"))
	rep.set("paillier.encrypt_us", median(enc), "us", noteN("median of", len(enc), "standalone calls"))
	rep.set("paillier.decrypt_us", median(dec), "us", noteN("median of", len(dec), "standalone calls"))
	return nil
}
