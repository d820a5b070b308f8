package corpus

import "math/rand"

// lazySource is math/rand's default source, seeded lazily. Document i of
// an index-addressable domain draws from rand.NewSource(mix64(seed, i)),
// whose Seed fills all 607 words of an additive lagged Fibonacci register
// up front: about 1,840 Lehmer steps, for a document that then draws a
// handful of values. lazySource yields the same stream, value for value,
// but computes each register word the first time the stream reads it, so
// seeding is O(1) and a short stream costs only the words it touches.
//
// math/rand seeds word j from the Lehmer states x(21+3j), x(22+3j) and
// x(23+3j), where x(n) = seed·48271ⁿ mod (2³¹−1), as
// x(21+3j)<<40 ^ x(22+3j)<<20 ^ x(23+3j) ^ rngCooked[j]. With 48271ⁿ
// tabulated, any word is three multiply-mods away.
type lazySource struct {
	seed      uint64 // normalized as math/rand normalizes it: in [1, 2³¹−1)
	tap, feed int
	have      [(rngLen + 63) / 64]uint64 // bit j: vec[j] is computed
	vec       [rngLen]uint64
}

// The register shape and Lehmer constants of math/rand's rngSource.
const (
	rngLen     = 607
	rngTap     = 273
	int32max   = 1<<31 - 1
	lehmerMul  = 48271
	lehmerSkip = 20 // Lehmer steps math/rand discards before word 0
	seedIfZero = 89482311
)

var (
	// rngCooked is math/rand's table of the same name: the words XORed
	// into every seeded register. It is recovered at init from
	// rand.NewSource(1) rather than copied (see init).
	rngCooked [rngLen]uint64
	// lehmerPow[j] holds 48271ⁿ mod (2³¹−1) for the three Lehmer steps
	// n = 21+3j, 22+3j and 23+3j that seed register word j.
	lehmerPow [rngLen][3]uint32
)

func init() {
	x := uint64(1)
	for n := 1; n <= lehmerSkip+3*rngLen; n++ {
		x = x * lehmerMul % int32max
		if k := n - lehmerSkip - 1; k >= 0 {
			lehmerPow[k/3][k%3] = uint32(x)
		}
	}

	// Recover seed 1's register from its first 607 outputs. Output k is
	// vec[feed] + vec[tap] with feed = (333−k) mod 607 and tap = 606−k.
	// Each feed word is still as seeded when read; the tap word is output
	// k−273 once k ≥ 273 (the feed wrote it there), and as seeded before.
	// Every word is a feed word exactly once, so the subtraction inverts
	// the whole register; words 334…606 come first because the early
	// outputs need them.
	src := rand.NewSource(1).(rand.Source64)
	var out, vec [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	const feed0 = rngLen - rngTap - 1 // 333, the first feed index
	for k := rngTap; k < rngLen; k++ {
		vec[(feed0-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[feed0-k] = out[k] - vec[rngLen-1-k]
	}
	for j := range vec {
		rngCooked[j] = vec[j] ^ lehmerWord(1, j)
	}
}

// lehmerWord is the Lehmer part of register word j for a normalized seed.
func lehmerWord(seed uint64, j int) uint64 {
	p := &lehmerPow[j]
	a := seed * uint64(p[0]) % int32max
	b := seed * uint64(p[1]) % int32max
	c := seed * uint64(p[2]) % int32max
	return a<<40 ^ b<<20 ^ c
}

// Seed implements rand.Source. It normalizes seed exactly as math/rand
// does and forgets the register; no word is computed until it is read.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedIfZero
	}
	s.seed = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.have = [len(s.have)]uint64{}
}

// word returns register word j, computing it on first read.
func (s *lazySource) word(j int) uint64 {
	if bit := uint64(1) << (j & 63); s.have[j>>6]&bit == 0 {
		s.have[j>>6] |= bit
		s.vec[j] = lehmerWord(s.seed, j) ^ rngCooked[j]
	}
	return s.vec[j]
}

// Uint64 implements rand.Source64: math/rand's lagged Fibonacci step.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return x
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
