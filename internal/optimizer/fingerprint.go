package optimizer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/ops"
)

// Fingerprint derives a canonical identity for an optimization problem:
// the logical chain, the selecting policy (with its parameters), and the
// optimizer options that shape the plan space. Two queries with equal
// fingerprints are guaranteed to optimize to the same physical plan over
// the same registered dataset, which is what lets the serving layer's
// cross-query plan cache skip re-optimization on repeat queries.
//
// The encoding is deliberately richer than the Describe() plan display:
// a Convert folds in its full target field list (name, type, and
// description), so two schemas that merely share a name cannot collide.
// Scans are identified by dataset registration name — the cache assumes a
// registered name keeps denoting the same data, which holds within one
// serving process.
func Fingerprint(chain []ops.Logical, policy Policy, opts Options) string {
	h := sha256.New()
	for _, op := range chain {
		io.WriteString(h, canonicalOp(op))
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "policy|%s", policy.Describe())
	h.Write([]byte{0})
	fmt.Fprintf(h, "opts|pruning=%t|sample=%d|pipelined=%t|partitions=%d",
		opts.Pruning, opts.SampleSize, opts.Pipelined, opts.Partitions)
	// The re-optimization window and seeded priors shape both the
	// enumerated orderings and the executor's mid-flight behaviour, so
	// they must separate plan-cache slots too. Priors are encoded sorted
	// by position for map-order independence.
	fmt.Fprintf(h, "|reoptafter=%d", opts.ReoptAfterBatches)
	positions := make([]int, 0, len(opts.Priors))
	for pos := range opts.Priors {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	for _, pos := range positions {
		oc := opts.Priors[pos]
		fmt.Fprintf(h, "|prior%d=%g:%g", pos, oc.Selectivity, oc.Fanout)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// canonicalOp renders one logical operator for fingerprinting. Operators
// whose Describe already captures their full semantics use it directly;
// the others get explicit encodings.
func canonicalOp(op ops.Logical) string {
	switch o := op.(type) {
	case *ops.Scan:
		return fmt.Sprintf("scan|%s|%s", o.Source.Name(), o.Source.Schema().Name())
	case *ops.Filter:
		if o.UDF != nil {
			// UDFs have no stable identity beyond their label; include it
			// so differently-named UDFs at least separate.
			return "filter-udf|" + o.UDFName
		}
		return "filter|" + o.Predicate
	case *ops.Convert:
		var b strings.Builder
		fmt.Fprintf(&b, "convert|%s|%s|%s", o.Target.Name(), o.Desc, o.Card)
		for _, f := range o.Target.Fields() {
			fmt.Fprintf(&b, "|%s:%s:%s", f.Name, f.Type, f.Desc)
		}
		return b.String()
	default:
		return op.Describe()
	}
}
