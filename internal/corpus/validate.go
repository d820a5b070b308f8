package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Corpus validation: the checks behind `pzcorpus validate`. ValidateDoc
// enforces the Truth contract on one document — the annotation must be
// internally consistent and answerable from the text, so the simulated
// oracle's gold answers are ones a perfect real model could produce.
// ValidateNDJSON applies it to every line of an on-disk corpus and
// re-derives the manifest checksum.

// ValidateDoc checks the generic Truth contract: the document is named
// and non-empty, carries at least one annotation, and every Fields value,
// Mention field value, and Numbers rendering is present in the text
// (case-insensitively), so the oracle can answer extraction requests from
// content a real model could also see.
func ValidateDoc(d *Doc) error {
	if d.Filename == "" {
		return fmt.Errorf("empty filename")
	}
	if strings.TrimSpace(d.Text) == "" {
		return fmt.Errorf("%s: empty text", d.Filename)
	}
	t := d.Truth
	if t == nil {
		return fmt.Errorf("%s: no ground truth", d.Filename)
	}
	if len(t.Topics)+len(t.Labels)+len(t.Fields)+len(t.Numbers)+len(t.Mentions) == 0 {
		return fmt.Errorf("%s: truth carries no annotations", d.Filename)
	}
	lower := strings.ToLower(d.Text)
	for _, topic := range t.Topics {
		if strings.TrimSpace(topic) == "" {
			return fmt.Errorf("%s: blank topic", d.Filename)
		}
	}
	for k, v := range t.Fields {
		if v == "" {
			return fmt.Errorf("%s: field %s is empty", d.Filename, k)
		}
		if !strings.Contains(lower, strings.ToLower(v)) {
			return fmt.Errorf("%s: field %s=%q not present in text", d.Filename, k, v)
		}
	}
	for i, m := range t.Mentions {
		if m.Kind == "" {
			return fmt.Errorf("%s: mention %d has no kind", d.Filename, i)
		}
		for k, v := range m.Fields {
			if v != "" && !strings.Contains(lower, strings.ToLower(v)) {
				return fmt.Errorf("%s: mention %d field %s=%q not present in text", d.Filename, i, k, v)
			}
		}
	}
	for k, n := range t.Numbers {
		if math.IsNaN(n) || math.IsInf(n, 0) {
			return fmt.Errorf("%s: number %s is not finite", d.Filename, k)
		}
		if !numberInText(d.Text, n) {
			return fmt.Errorf("%s: number %s=%v not present in text", d.Filename, k, n)
		}
	}
	return nil
}

// fnv64 hashes s with FNV-1a (inline to avoid allocating a hash.Hash64
// per line in the validation loop).
func fnv64(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// numberInText reports whether any conventional rendering of v appears in
// text: plain integer, thousands-grouped integer, or fixed/shortest float.
func numberInText(text string, v float64) bool {
	if v == math.Trunc(v) {
		n := int64(v)
		return strings.Contains(text, strconv.FormatInt(n, 10)) ||
			strings.Contains(text, groupDigits(n))
	}
	return strings.Contains(text, strconv.FormatFloat(v, 'f', 2, 64)) ||
		strings.Contains(text, strconv.FormatFloat(v, 'g', -1, 64))
}

// Domain validators for the paper-demo domains (the scale domains define
// theirs next to their generators).

func validateBiomedDoc(d *Doc) error {
	crc := d.Truth.Labels["colorectal"]
	if crc != d.Truth.HasTopic(ColorectalTopic) {
		return fmt.Errorf("colorectal label %t disagrees with topics %v", crc, d.Truth.Topics)
	}
	if !crc && len(d.Truth.MentionsOfKind(DatasetMentionKind)) > 0 {
		return fmt.Errorf("off-topic paper carries dataset mentions")
	}
	return nil
}

func validateLegalDoc(d *Doc) error {
	indem := d.Truth.Labels[IndemnificationLabel]
	if indem != strings.Contains(d.Text, "Indemnification") {
		return fmt.Errorf("indemnification label %t disagrees with text", indem)
	}
	return nil
}

func validateRealEstateDoc(d *Doc) error {
	if d.Truth.Numbers["price"] <= 0 {
		return fmt.Errorf("non-positive price %v", d.Truth.Numbers["price"])
	}
	if d.Truth.Numbers["bedrooms"] < 1 {
		return fmt.Errorf("listing has %v bedrooms", d.Truth.Numbers["bedrooms"])
	}
	return nil
}

// maxValidationErrors caps how many per-line problems one validation run
// reports before giving up on a corpus.
const maxValidationErrors = 20

// ValidationReport is the outcome of validating one on-disk corpus.
type ValidationReport struct {
	// Path is the corpus file checked.
	Path string
	// Docs, Bytes, and SHA256 are re-derived from the file.
	Docs   int
	Bytes  int64
	SHA256 string
	// LabelCounts are re-derived true-label counts.
	LabelCounts map[string]int
	// Errors lists every problem found (manifest mismatches, contract
	// violations), capped at maxValidationErrors.
	Errors []string
	// Notes are informational observations that do not fail validation
	// (e.g. a hand-made corpus with no manifest, which limits the run to
	// content checks).
	Notes []string
}

// OK reports whether the corpus passed every check.
func (r *ValidationReport) OK() bool { return len(r.Errors) == 0 }

func (r *ValidationReport) errf(format string, args ...any) bool {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	return len(r.Errors) >= maxValidationErrors
}

// ValidateNDJSON checks the corpus at path in one streaming pass:
// checksum and counts are re-derived and compared against the manifest,
// and every line must decode, carry a unique filename, and satisfy
// ValidateDoc plus the generating domain's Validate hook. I/O failures
// return an error; content problems land in the report's Errors. A
// corpus without a manifest can still pass — the limitation is recorded
// in Notes and only the content checks apply.
func ValidateNDJSON(path string) (*ValidationReport, error) {
	rep := &ValidationReport{Path: path, LabelCounts: map[string]int{}}
	m, err := ReadManifest(path)
	if os.IsNotExist(err) {
		// Hand-made corpora legitimately have no manifest; note it and
		// run the content checks alone.
		m = nil
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("manifest %s missing: content checks only, no checksum verification", path+ManifestSuffix))
	} else if err != nil {
		return nil, err
	}

	var domainCheck func(*Doc) error
	if m != nil && m.Domain != "" {
		d, ok := DomainByName(m.Domain)
		if !ok {
			rep.errf("manifest names unknown domain %q", m.Domain)
		} else {
			domainCheck = d.Validate
		}
	}

	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	lr := newLineReader(io.TeeReader(f, h))
	var dec docDecoder

	// Duplicate-filename detection keeps 64-bit filename hashes, not the
	// names themselves — ~8 bytes per document instead of the full
	// string, so validating a multi-million-document corpus stays cheap.
	// A hash collision would report a spurious duplicate; at 64 bits the
	// odds are negligible (~n²/2^65).
	seen := map[uint64]bool{}
	// When the manifest references an embedding sidecar, keep the filename
	// hashes in document order so the sidecar's row keys can be checked
	// against the corpus exactly (8 bytes per document, same budget as the
	// duplicate detector).
	var docKeys []uint64
	ixb := newIndexBuilder()
	for raw, ok := lr.next(); ok; raw, ok = lr.next() {
		line := lr.line
		rep.Bytes = lr.end
		d, err := dec.decode(raw)
		if err != nil {
			if rep.errf("line %d: %v", line, err) {
				return rep, nil
			}
			continue
		}
		ixb.note(rep.Docs, lr.start)
		rep.Docs++
		nameHash := fnv64(d.Filename)
		if seen[nameHash] {
			if rep.errf("line %d: duplicate filename %s", line, d.Filename) {
				return rep, nil
			}
		}
		seen[nameHash] = true
		if m != nil && m.Embeddings != nil {
			docKeys = append(docKeys, nameHash)
		}
		if err := ValidateDoc(d); err != nil {
			if rep.errf("line %d: %v", line, err) {
				return rep, nil
			}
			continue
		}
		if domainCheck != nil {
			if err := domainCheck(d); err != nil {
				if rep.errf("line %d: %s: %v", line, d.Filename, err) {
					return rep, nil
				}
			}
		}
		for label, v := range d.Truth.Labels {
			if v {
				rep.LabelCounts[label]++
			}
		}
	}
	if err := lr.err(); err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", path, err)
	}
	rep.Bytes = lr.end
	rep.SHA256 = hex.EncodeToString(h.Sum(nil))

	if m != nil {
		if rep.SHA256 != m.SHA256 {
			rep.errf("checksum mismatch: file %s, manifest %s", rep.SHA256, m.SHA256)
		}
		if rep.Docs != m.NumDocs {
			rep.errf("document count mismatch: file %d, manifest %d", rep.Docs, m.NumDocs)
		}
		for label, want := range m.LabelCounts {
			if got := rep.LabelCounts[label]; got != want {
				rep.errf("label %q count mismatch: file %d, manifest %d", label, got, want)
			}
		}
		validateIndex(rep, m.Index, ixb)
		if m.Embeddings != nil {
			validateEmbeddings(rep, path, m.Embeddings, docKeys)
		}
	}
	return rep, nil
}

// validateIndex compares a manifest's partition index against the one
// re-derived from the file. The index builder is deterministic in the
// document sequence, so a correct index matches checkpoint for
// checkpoint; a missing index is only noted — older corpora without one
// remain valid, just not partitionable.
func validateIndex(rep *ValidationReport, got *PartitionIndex, ixb *indexBuilder) {
	want := ixb.index(rep.Docs)
	if got == nil {
		if want != nil {
			rep.Notes = append(rep.Notes,
				"manifest has no partition index: partitioned scans unavailable, back-fill with `pzcorpus index`")
		}
		return
	}
	if want == nil {
		rep.errf("manifest carries a partition index but the corpus has no documents")
		return
	}
	if got.Stride != want.Stride {
		rep.errf("partition index stride mismatch: file %d, manifest %d", want.Stride, got.Stride)
		return
	}
	if len(got.Offsets) != len(want.Offsets) {
		rep.errf("partition index checkpoint count mismatch: file %d, manifest %d",
			len(want.Offsets), len(got.Offsets))
		return
	}
	for k := range want.Offsets {
		if got.Offsets[k] != want.Offsets[k] {
			rep.errf("partition index checkpoint %d mismatch: file offset %d, manifest %d",
				k, want.Offsets[k], got.Offsets[k])
			return
		}
	}
}
