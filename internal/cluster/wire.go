// Package cluster promotes the serving layer into a coordinator/worker
// topology for partitioned NDJSON scans. The coordinator splits an
// indexed corpus by its manifest partition index (the same byte-offset
// table behind in-process partition-parallel scans), scatters one
// sub-plan per partition across a registry of pzworker daemons, and
// merges the streamed results back in partition order — so a distributed
// query's records are byte-identical, in identical order, to the
// single-process sequential scan. Robustness is first-class: periodic
// worker health checks with deregistration, per-partition timeouts with
// bounded retry and re-scatter to a healthy worker, speculative
// re-issue of straggling partitions, and graceful fallback to local
// partition execution when the worker pool drains mid-query. See
// docs/architecture.md §8.
package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/pz"
)

// PartitionRequest is the coordinator→worker wire form of one scattered
// partition: a sub-plan in the existing serve.Spec format plus the byte
// range of the corpus slice it runs over. The worker opens its own
// OpenNDJSONRange reader for [Offset, Offset+Docs) of the named dataset's
// backing file, so nothing but the spec and the range crosses the wire.
type PartitionRequest struct {
	// Spec is the sub-plan: the logical operators of the coordinator's
	// scattered plan prefix, in plan order. Spec.Dataset.Name must
	// resolve against the worker's own dataset registry.
	Spec serve.Spec `json:"spec"`
	// PlanSig pins the physical plan: the op-ID signature of the
	// coordinator's plan prefix (see PlanSignature). The worker must
	// execute exactly these physical operators — re-optimizing over a
	// partition's local statistics could pick a different model or
	// strategy, whose content-keyed noise would break byte-identity with
	// the sequential scan. Empty lets the worker use its own champion.
	PlanSig []string `json:"plan_sig,omitempty"`
	// Partition is the partition ordinal in corpus order — it tags every
	// response chunk so the coordinator can merge globally.
	Partition int `json:"partition"`
	// Offset is the byte offset of the partition's first document line.
	Offset int64 `json:"offset"`
	// Docs is the partition's exact document count.
	Docs int `json:"docs"`
}

// PlanSignature renders a physical plan as its ordered op-ID list — the
// wire form of a plan choice. Op IDs carry their full parameterization
// (model, strategy, thresholds), so equal signatures mean physically
// identical execution.
func PlanSignature(p *pz.Plan) []string {
	out := make([]string, len(p.Ops))
	for i, op := range p.Ops {
		out[i] = op.ID()
	}
	return out
}

// WireRecord is one record crossing the worker→coordinator wire: the
// schema field values, the hidden ground-truth annotation, and the source
// label. Its JSON shape is owned by package corpus, beside the truth's.
type WireRecord = corpus.WireRecord

// PartitionChunk is one NDJSON line of a worker's streamed partition
// response. Records arrive in seq order; the terminal chunk has Done set
// and carries the partition's simulated elapsed time and LLM cost. A
// stream that ends without a Done chunk signals a worker that died
// mid-partition, and the coordinator re-scatters. A record chunk is
// written by writeChunk and read by decodeRecordChunk, with encoding/json
// as the reference (see decodeChunk).
type PartitionChunk struct {
	Seq     int          `json:"seq"`
	Records []WireRecord `json:"records,omitempty"`
	Done    bool         `json:"done,omitempty"`
	// ElapsedSimNS and CostUSD summarize the partition run (Done chunk
	// only). The sim time crosses in nanoseconds, so a remote partition
	// reports the Elapsed that local execution does.
	ElapsedSimNS int64   `json:"elapsed_sim_ns,omitempty"`
	CostUSD      float64 `json:"cost_usd,omitempty"`
	// Trace is the partition run's span tree (Done chunk only), so the
	// coordinator can embed worker-side spans under its own partition
	// spans.
	Trace *trace.Span `json:"trace,omitempty"`
	// Error reports a worker-side execution failure (terminal).
	Error string `json:"error,omitempty"`
}

// PartitionResult is one partition's gathered output, normalized back
// into engine records.
type PartitionResult struct {
	Records []*record.Record
	Elapsed time.Duration
	CostUSD float64
	// Trace is the executing side's span tree for the partition run.
	Trace *trace.Span
}

// EncodeRecords renders records into their wire form.
func EncodeRecords(recs []*record.Record) []WireRecord {
	out := make([]WireRecord, len(recs))
	for i, r := range recs {
		out[i] = WireRecord{Values: r.Values(), Truth: corpus.TruthOf(r), Source: r.Source()}
	}
	return out
}

// DecodeRecords rebuilds engine records from their wire form under the
// sub-plan's output schema. record.New's coercion absorbs JSON's type
// flattening ([]any→[]string); Bytes fields come back as base64 strings
// and are decoded here before coercion sees them. A value decoded as a
// json.Number (see unmarshalChunk) is converted by its field's type, so
// an Int field keeps every bit of its int64.
func DecodeRecords(s *schema.Schema, wire []WireRecord) ([]*record.Record, error) {
	out := make([]*record.Record, len(wire))
	for i, w := range wire {
		vals := w.Values
		for _, f := range s.Fields() {
			var err error
			switch v := vals[f.Name].(type) {
			case json.Number:
				vals[f.Name], err = numberValue(f.Type, v)
			case string:
				if f.Type == schema.Bytes {
					vals[f.Name], err = base64.StdEncoding.DecodeString(v)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("cluster: record %d field %s: %w", i, f.Name, err)
			}
		}
		rec, err := record.New(s, vals)
		if err != nil {
			return nil, fmt.Errorf("cluster: record %d: %w", i, err)
		}
		rec.SetSource(w.Source)
		if w.Truth != nil {
			rec.SetTruth(w.Truth)
		}
		out[i] = rec
	}
	return out, nil
}

// numberValue converts a JSON number for a field of type t: to int64 for
// an Int field, which takes integer literals only, and otherwise to the
// float64 encoding/json decodes a number to.
func numberValue(t schema.FieldType, n json.Number) (any, error) {
	if t != schema.Int {
		return n.Float64()
	}
	v, err := strconv.ParseInt(string(n), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%s is not an int64", n)
	}
	return v, nil
}

// A record chunk's frame: the seq and records keys of PartitionChunk, in
// the order and spelling encoding/json writes them.
const (
	chunkSeq     = `{"seq":`
	chunkRecords = `,"records":`
)

// writeChunk writes the record chunk of recs numbered seq, with its
// newline, to w: the bytes a json.Encoder with HTML escaping off writes
// for PartitionChunk{Seq: seq, Records: EncodeRecords(recs)}. Records are
// encoded one at a time into w's buffer, so a chunk of any size needs
// none of its own. A value JSON cannot carry, NaN or an infinity, fails
// it with part of the chunk written.
func writeChunk(w *bufio.Writer, enc *corpus.RecordEncoder, seq int, recs []*record.Record) error {
	b := strconv.AppendInt(append(w.AvailableBuffer(), chunkSeq...), int64(seq), 10)
	if len(recs) > 0 {
		b = append(b, chunkRecords+"["...)
		for i, r := range recs {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = enc.Append(b, r); !ok {
				return fmt.Errorf("cluster: record %d of chunk %d: unsupported value: NaN or an infinity", i, seq)
			}
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = w.AvailableBuffer()
		}
		b = append(b, ']')
	}
	_, err := w.Write(append(b, '}', '\n'))
	return err
}

// decodeRecordChunk is the fast path of decodeChunk. It takes a line
// framed exactly as writeChunk frames one, a seq in its shortest form
// and records, whose array it decodes under s with dec, appending the
// records to recs. It reports false, with recs as given, for any other
// line.
func decodeRecordChunk(dec *corpus.RecordsDecoder, line []byte, s *schema.Schema, recs []*record.Record) (int, []*record.Record, bool) {
	rest, ok := bytes.CutPrefix(bytes.TrimRight(line, " \t\r\n"), []byte(chunkSeq))
	i := bytes.IndexByte(rest, ',')
	if !ok || i < 0 {
		return 0, recs, false
	}
	seq, err := strconv.Atoi(string(rest[:i]))
	var short [20]byte
	if err != nil || !bytes.Equal(rest[:i], strconv.AppendInt(short[:0], int64(seq), 10)) {
		return 0, recs, false
	}
	body, ok := bytes.CutPrefix(rest[i:], []byte(chunkRecords))
	if body, ok = bytes.CutSuffix(body, []byte("}")); !ok {
		return 0, recs, false
	}
	recs, ok = dec.Decode(body, s, recs)
	return seq, recs, ok
}

// unmarshalChunk is json.Unmarshal of one line of a partition stream,
// except that it keeps numbers as json.Number for DecodeRecords, and that
// it rejects the sim time of a worker of an older version, which sent it
// in whole milliseconds as elapsed_sim_ms: read as it is, the done chunk
// would report an Elapsed of zero.
func unmarshalChunk(line []byte) (PartitionChunk, error) {
	var ch struct {
		PartitionChunk
		ElapsedSimMS json.RawMessage `json:"elapsed_sim_ms"`
	}
	if !json.Valid(line) {
		// The same error json.Unmarshal gives: the syntax error.
		return ch.PartitionChunk, json.Unmarshal(line, &ch.PartitionChunk)
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	if err := dec.Decode(&ch); err != nil {
		return ch.PartitionChunk, err
	}
	if ch.ElapsedSimMS != nil {
		return ch.PartitionChunk, errors.New("cluster: chunk carries elapsed_sim_ms: the worker runs an older version; upgrade the coordinator and its workers together")
	}
	return ch.PartitionChunk, nil
}

// decodeChunk decodes one line of a partition stream, appending its
// records, decoded under s, to recs. A record chunk takes the fast path,
// decodeRecordChunk; any other line, a done or error chunk among them,
// goes through unmarshalChunk and DecodeRecords, the reference. The
// records of a done or error chunk are ignored.
func decodeChunk(dec *corpus.RecordsDecoder, line []byte, s *schema.Schema, recs []*record.Record) (PartitionChunk, []*record.Record, error) {
	if seq, out, ok := decodeRecordChunk(dec, line, s, recs); ok {
		return PartitionChunk{Seq: seq}, out, nil
	}
	ch, err := unmarshalChunk(line)
	if err != nil || ch.Done || ch.Error != "" {
		return ch, recs, err
	}
	more, err := DecodeRecords(s, ch.Records)
	return ch, append(recs, more...), err
}

// ExecutePartition runs one scattered partition in-process: a fresh
// pz.Context with a range NDJSONSource registered over the request's
// byte range, the sub-plan built against it, and the result gathered
// whole. Both sides of the wire share this path — the worker daemon
// serves it over HTTP, and the coordinator calls it directly as the
// local fallback when no healthy workers remain — so a partition
// executes identically wherever it lands. path locates the corpus file
// on this machine (registries may differ between coordinator and
// workers).
func ExecutePartition(ctx context.Context, req *PartitionRequest, path string, parallelism int) (*PartitionResult, error) {
	if req.Docs < 1 {
		return nil, fmt.Errorf("cluster: partition %d has %d documents", req.Partition, req.Docs)
	}
	pzctx, err := pz.NewContext(pz.Config{Parallelism: parallelism})
	if err != nil {
		return nil, err
	}
	name := req.Spec.Dataset.Name
	if name == "" {
		name = "dataset"
	}
	src, err := dataset.NewNDJSONRangeSource(name, path, req.Offset, req.Docs)
	if err != nil {
		return nil, err
	}
	if err := pzctx.Register(src); err != nil {
		return nil, err
	}
	sub := req.Spec
	sub.Dataset = serve.DatasetSpec{Name: name}
	sub.Partitions = 0
	ds, err := sub.Build(pzctx)
	if err != nil {
		return nil, err
	}
	policy, err := sub.ParsePolicy()
	if err != nil {
		return nil, err
	}
	champion, candidates, err := pzctx.OptimizeOnly(ds, policy)
	if err != nil {
		return nil, err
	}
	plan := champion
	if len(req.PlanSig) > 0 {
		plan = nil
		for _, cand := range candidates {
			if slices.Equal(PlanSignature(cand), req.PlanSig) {
				plan = cand
				break
			}
		}
		if plan == nil {
			return nil, fmt.Errorf("cluster: partition %d cannot realize pinned plan %v", req.Partition, req.PlanSig)
		}
	}
	res, err := pzctx.ExecutePlanContext(ctx, plan, policy.Describe())
	if err != nil {
		return nil, err
	}
	return &PartitionResult{Records: res.Records, Elapsed: res.Elapsed, CostUSD: res.CostUSD, Trace: res.Trace}, nil
}
