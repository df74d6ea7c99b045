package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The reference kernels are the original naive loops, kept as the oracle the
// register-blocked kernels must match bit for bit. Shape checks are the
// callers' job here; the loop bodies are unchanged.

func refMatMulInto(out, a, b *Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out.Zero()
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

func refMatMulATBInto(out, a, b *Tensor) {
	m, k, n := a.Shape[1], a.Shape[0], b.Shape[1]
	out.Zero()
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

func refMatMulABTInto(out, a, b *Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			s := 0.0
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
}

// kernelSpecials are the values whose arithmetic the bit-identity argument
// has to survive: signed zeros (skipped by the zero test), infinities (0·Inf
// is NaN unless skipped), NaN, subnormals and near-overflow magnitudes.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1040,
	math.MaxFloat64 / 4, 1, -1,
}

// kernelCase is one kernel under the oracle check. Every kernel produces an
// [m×n] out summed over k; aT and bT say whether its a or b operand is stored
// transposed ([k×m] or [n×k]).
type kernelCase struct {
	name   string
	kernel func(out, a, b *Tensor)
	ref    func(out, a, b *Tensor)
	aT, bT bool
}

var kernelCases = []kernelCase{
	{"Into", MatMulInto, refMatMulInto, false, false},
	{"ABT", MatMulABTInto, refMatMulABTInto, false, true},
	{"ATB", MatMulATBInto, refMatMulATBInto, true, false},
}

// operands allocates kc's a and b for an [m×k]·[k×n] product.
func (kc kernelCase) operands(m, k, n int) (a, b *Tensor) {
	a, b = New(m, k), New(k, n)
	if kc.aT {
		a = New(k, m)
	}
	if kc.bT {
		b = New(n, k)
	}
	return a, b
}

// sameBits is bit equality with every NaN equal to every other NaN: NaN
// payloads may legitimately depend on which operand the hardware sees first.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// checkKernel runs kc's kernel and its reference on the same operands, each
// into an out pre-filled with garbage (so an unassigned element shows), and
// reports the first element whose bits differ.
func checkKernel(t *testing.T, kc kernelCase, a, b *Tensor, m, k, n int) {
	t.Helper()
	got, want := New(m, n), New(m, n)
	for i := range got.Data {
		got.Data[i] = 1e300 + float64(i)
		want.Data[i] = -7.25
	}
	kc.kernel(got, a, b)
	kc.ref(want, a, b)
	for i := range got.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s m=%d k=%d n=%d: out[%d] = %v (%#x), reference %v (%#x)\na=%v\nb=%v",
				kc.name, m, k, n, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]), a.Data, b.Data)
		}
	}
}

// fillOperand draws finite normals with a specialPct percent share of
// kernelSpecials, plus whole zero rows now and then so the zero skip runs.
func fillOperand(rng *rand.Rand, t *Tensor, specialPct int) {
	for i := range t.Data {
		if rng.Intn(100) < specialPct {
			t.Data[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
		} else {
			t.Data[i] = rng.NormFloat64() * 3
		}
	}
	if rows, cols := t.Shape[0], t.Shape[1]; rows > 0 && cols > 0 && rng.Intn(4) == 0 {
		r := rng.Intn(rows)
		for j := 0; j < cols; j++ {
			t.Data[r*cols+j] = 0
		}
	}
}

// TestMatMulKernelsMatchReference pins the blocked kernels to the naive loops
// on every shape with m, k, n in 0..9 — odd row counts, column counts off the
// 4-wide block, k = 0 and one-row operands included — with finite data and
// with a share of signed zeros, infinities, NaNs and subnormals.
func TestMatMulKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kc := range kernelCases {
		for m := 0; m <= 9; m++ {
			for k := 0; k <= 9; k++ {
				for n := 0; n <= 9; n++ {
					for _, pct := range []int{0, 20, 60} {
						a, b := kc.operands(m, k, n)
						fillOperand(rng, a, pct)
						fillOperand(rng, b, pct)
						checkKernel(t, kc, a, b, m, k, n)
					}
				}
			}
		}
	}
}

// FuzzMatMulKernels checks the same property on fuzzer-chosen shapes (each
// side up to 11) and raw operand bits: data is read as little-endian float64
// words, cycled to fill a then b, so any bit pattern can reach the kernels.
func FuzzMatMulKernels(f *testing.F) {
	word := func(vs ...float64) []byte {
		var buf []byte
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		return buf
	}
	f.Add(uint8(3), uint8(5), uint8(6), word(1.5, -0.1, 3, 0.7, -2.2, 1e-3, 9))
	f.Add(uint8(1), uint8(9), uint8(4), word(kernelSpecials...))
	f.Add(uint8(7), uint8(0), uint8(5), word(2))
	f.Add(uint8(2), uint8(4), uint8(11), word(0, math.Inf(1), -0.5, math.NaN(), 0.3))
	f.Fuzz(func(t *testing.T, m8, k8, n8 uint8, data []byte) {
		m, k, n := int(m8%12), int(k8%12), int(n8%12)
		pool := []float64{0}
		if len(data) >= 8 {
			pool = pool[:0]
			for i := 0; i+8 <= len(data); i += 8 {
				pool = append(pool, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
			}
		}
		for _, kc := range kernelCases {
			a, b := kc.operands(m, k, n)
			next := 0
			for _, op := range []*Tensor{a, b} {
				for i := range op.Data {
					op.Data[i] = pool[next%len(pool)]
					next++
				}
			}
			checkKernel(t, kc, a, b, m, k, n)
		}
	})
}

// BenchmarkMatMulKernels times each kernel at the shape it meets in a served
// session cycle on OTA1's PP edge features at Hidden 24: the forward
// [527×24]·[24×24] (Into), its input gradient [527×24]·[24×24]ᵀ (ABT) and,
// in training, the weight gradient [527×24]ᵀ·[527×24] (ATB). Each Ref arm
// runs the naive loop the kernel replaced.
func BenchmarkMatMulKernels(b *testing.B) {
	const rows, h = 527, 24
	rng := rand.New(rand.NewSource(1))
	for _, kc := range kernelCases {
		m, k, n := rows, h, h
		if kc.aT {
			m, k = h, rows
		}
		a, bb := kc.operands(m, k, n)
		fillOperand(rng, a, 0)
		fillOperand(rng, bb, 0)
		out := New(m, n)
		for _, arm := range []struct {
			name string
			fn   func(out, a, b *Tensor)
		}{{kc.name, kc.kernel}, {kc.name + "Ref", kc.ref}} {
			b.Run(arm.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					arm.fn(out, a, bb)
				}
			})
		}
	}
}
