package corpus

import (
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestDocRNGMatchesInternal(t *testing.T) {
	for _, i := range []int{0, 1, 999} {
		if a, b := DocRNG(17, i).Int63(), docRNG(17, i).Int63(); a != b {
			t.Fatalf("doc %d: exported DocRNG diverges from internal: %d vs %d", i, a, b)
		}
	}
}

func TestNewIndexGenerator(t *testing.T) {
	g := NewIndexGenerator("t", 3, 17, func(rng *rand.Rand, i int) *Doc {
		return &Doc{Filename: strings.Repeat("x", i+1), Text: strconv.FormatInt(rng.Int63(), 10)}
	})
	if g.Domain() != "t" || g.Len() != 3 {
		t.Fatalf("domain %q len %d", g.Domain(), g.Len())
	}
	for want := 1; want <= 3; want++ {
		d, err := g.Next()
		if err != nil || len(d.Filename) != want {
			t.Fatalf("doc %d: %v %v", want, d, err)
		}
		// The generator's re-seeded RNG is document i's DocRNG stream.
		if v := strconv.FormatInt(DocRNG(17, want-1).Int63(), 10); d.Text != v {
			t.Fatalf("doc %d: drew %s, DocRNG draws %s", want, d.Text, v)
		}
	}
	if _, err := g.Next(); err != io.EOF {
		t.Fatalf("want io.EOF after the last doc, got %v", err)
	}
	empty := NewIndexGenerator("t", 0, 17, nil)
	if empty.Len() != 0 {
		t.Fatalf("empty generator has Len %d", empty.Len())
	}
	if _, err := empty.Next(); err != io.EOF {
		t.Fatalf("empty generator: want io.EOF, got %v", err)
	}
}

func TestPositiveScatter(t *testing.T) {
	for _, tc := range []struct {
		n    int
		rate float64
		want int
	}{
		{100, 0.3, 30},
		{100, 0, 0},
		{100, 1, 100},
		{100, -0.5, 0}, // clamped
		{100, 2.0, 100},
		{0, 0.5, 0},
		{7, 0.5, 4}, // round(3.5)
	} {
		ps := NewPositiveScatter(9, tc.n, tc.rate)
		if ps.Positives() != tc.want {
			t.Fatalf("n=%d rate=%v: Positives %d, want %d", tc.n, tc.rate, ps.Positives(), tc.want)
		}
		got := 0
		for i := 0; i < tc.n; i++ {
			if ps.Positive(i) {
				got++
			}
		}
		if got != tc.want {
			t.Fatalf("n=%d rate=%v: marked %d, want %d", tc.n, tc.rate, got, tc.want)
		}
	}
}

func TestRegisterDomainErrors(t *testing.T) {
	if err := RegisterDomain(Domain{}); err == nil {
		t.Fatalf("nameless domain registered")
	}
	if err := RegisterDomain(Domain{Name: "no-ctor"}); err == nil {
		t.Fatalf("constructor-less domain registered")
	}
	if err := RegisterDomain(Domain{Name: DomainSupport, New: func(int, float64, int64) Generator { return nil }}); err == nil {
		t.Fatalf("duplicate of %q registered", DomainSupport)
	}
	// The registered domain must behave like a real one (seed-sensitive
	// text): the registry-wide determinism test sweeps every entry.
	name := "sdk-test-domain"
	if err := RegisterDomain(Domain{Name: name, DefaultDocs: 1, New: func(n int, rate float64, seed int64) Generator {
		return NewIndexGenerator(name, n, seed, func(rng *rand.Rand, i int) *Doc {
			return &Doc{
				Filename: "d",
				Text:     strconv.FormatInt(rng.Int63(), 10),
				Truth:    &Truth{Topics: []string{"t"}},
			}
		})
	}}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, ok := DomainByName(name); !ok {
		t.Fatalf("registered domain not resolvable")
	}
}
