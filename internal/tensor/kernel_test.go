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

// finiteSpecials are kernelSpecials without ±Inf and NaN: a b operand drawn
// from them keeps Into and ATB on the SIMD path while a still holds ±0.
var finiteSpecials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64,
	0x1p-1040, math.MaxFloat64 / 4, 1, -1,
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

// kernelPaths names the kernel paths this process can run: the Go kernels
// everywhere, plus the AVX2 ones where simdOK.
func kernelPaths() []string {
	if simdOK {
		return []string{"go", "simd"}
	}
	return []string{"go"}
}

// onPath sets the SIMD switch for path until the test ends.
func onPath(tb testing.TB, path string) {
	prev := useSIMD
	useSIMD = path == "simd"
	tb.Cleanup(func() { useSIMD = prev })
}

// sameBits is bit equality with every NaN equal to every other NaN: NaN
// payloads may legitimately depend on which operand the hardware sees first.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// checkKernel runs kc's kernel and its reference on the same operands, each
// into an out pre-filled with garbage (so an unassigned element shows), and
// reports the first element whose bits differ.
func checkKernel(t *testing.T, path string, kc kernelCase, a, b *Tensor, m, k, n int) {
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
			t.Fatalf("%s (%s path) m=%d k=%d n=%d: out[%d] = %v (%#x), reference %v (%#x)\na=%v\nb=%v",
				kc.name, path, m, k, n, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]), a.Data, b.Data)
		}
	}
}

// fillOperand draws finite normals with a specialPct percent share of
// specials, plus whole zero rows now and then so the zero skip runs.
func fillOperand(rng *rand.Rand, t *Tensor, specialPct int, specials []float64) {
	for i := range t.Data {
		if rng.Intn(100) < specialPct {
			t.Data[i] = specials[rng.Intn(len(specials))]
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

// operandMixes are the data the oracle checks run each shape on: the share
// of specials in a and in b, and b's special pool. Finite b keeps Into and
// ATB on the SIMD path; non-finite b sends them to the Go fallback.
var operandMixes = []struct {
	aPct, bPct int
	bSpecials  []float64
}{
	{0, 0, kernelSpecials},
	{20, 20, kernelSpecials},
	{60, 60, kernelSpecials},
	{30, 30, finiteSpecials},
	{60, 10, finiteSpecials},
}

// checkShape runs every kernel on every path over one shape and every
// operand mix.
func checkShape(t *testing.T, rng *rand.Rand, m, k, n int) {
	t.Helper()
	for _, path := range kernelPaths() {
		onPath(t, path)
		for _, kc := range kernelCases {
			for _, mix := range operandMixes {
				a, b := kc.operands(m, k, n)
				fillOperand(rng, a, mix.aPct, kernelSpecials)
				fillOperand(rng, b, mix.bPct, mix.bSpecials)
				checkKernel(t, path, kc, a, b, m, k, n)
			}
		}
	}
}

// TestMatMulKernelsMatchReference pins the blocked kernels, Go and SIMD, to
// the naive loops on every shape with m in 0..11 (two 4-row SIMD blocks plus
// a 3-row tail), k in 0..9 and n in 0..23 (two 8-column panels, a 4-column
// one and a 3-column tail), on k past the 64-deep ABT packing chunk, and on
// the served shapes: OTA1's PP-edge rbf [527×12]·[12×24] and messages
// [527×24]·[24×24], its AP rows [58×24]·[24×24], and the weight gradients'
// transposes. Data is finite, or has a share of signed zeros, infinities,
// NaNs and subnormals, in b too, so the SIMD path's Go fallback runs as well.
func TestMatMulKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for m := 0; m <= 11; m++ {
		for k := 0; k <= 9; k++ {
			for n := 0; n <= 23; n++ {
				checkShape(t, rng, m, k, n)
			}
		}
	}
	for _, k := range []int{63, 64, 65, 129} {
		for _, m := range []int{4, 11} {
			for _, n := range []int{4, 8, 12, 23} {
				checkShape(t, rng, m, k, n)
			}
		}
	}
	for _, s := range [][3]int{
		{527, 12, 24}, {527, 24, 24}, {58, 24, 24},
		{527, 24, 12}, {12, 527, 24}, {24, 527, 24}, {24, 58, 24},
	} {
		checkShape(t, rng, s[0], s[1], s[2])
	}
}

// TestMatMulKernelsUseSIMD checks the oracle tests reach what they claim to:
// where simdOK, the switch starts on and the SIMD kernels write the leading
// 4 × 4k block, which a kernel stripped down to its Go tail leaves untouched.
func TestMatMulKernelsUseSIMD(t *testing.T) {
	if !simdOK {
		t.Skip("no SIMD kernels in this process")
	}
	if !useSIMD {
		t.Fatal("useSIMD starts off although simdOK")
	}
	a, b := New(5, 3), New(3, 9)
	a.Fill(1)
	b.Fill(2)
	out := New(5, 9)
	out.Fill(-1)
	m4, n4 := simdBlock(5, 3, 9)
	if m4 != 4 || n4 != 8 {
		t.Fatalf("simdBlock(5, 3, 9) = %d, %d, want 4, 8", m4, n4)
	}
	simdPanel(8, &out.Data[0], 9, &a.Data[0], 3, 1, &b.Data[0], 9, 4, 3, false)
	for i := 0; i < 4; i++ {
		for j := 0; j < 9; j++ {
			want := 6.0
			if j == 8 {
				want = -1
			}
			if got := out.At(i, j); got != want {
				t.Fatalf("panel out[%d][%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestSIMDOnlyWhereGoRounds shows what a build that contracts the Go
// kernels' acc += x*y into an FMA (GOAMD64=v3) does with the SIMD kernels,
// which round every product: it switches them off. The probe is the Go
// kernel itself on a sum that an FMA computes differently.
func TestSIMDOnlyWhereGoRounds(t *testing.T) {
	rounds := goRoundsProducts()
	if !rounds && simdOK {
		t.Fatal("the Go kernels fuse multiply-adds, yet the SIMD kernels are on")
	}
	t.Logf("Go kernels round each product: %v; SIMD kernels on: %v", rounds, simdOK)
}

// FuzzMatMulKernels checks the same property on fuzzer-chosen shapes (m and k
// up to 11, n up to 23) and raw operand bits, on every path: data is read as
// little-endian float64 words, cycled to fill a then b, so any bit pattern
// can reach the kernels.
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
	f.Add(uint8(11), uint8(6), uint8(23), word(1.5, 0, -0.1, 3, math.Copysign(0, -1), 0.7, -2.2))
	f.Add(uint8(9), uint8(3), uint8(20), word(finiteSpecials...))
	f.Fuzz(func(t *testing.T, m8, k8, n8 uint8, data []byte) {
		m, k, n := int(m8%12), int(k8%12), int(n8%24)
		pool := []float64{0}
		if len(data) >= 8 {
			pool = pool[:0]
			for i := 0; i+8 <= len(data); i += 8 {
				pool = append(pool, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
			}
		}
		for _, path := range kernelPaths() {
			onPath(t, path)
			for _, kc := range kernelCases {
				a, b := kc.operands(m, k, n)
				next := 0
				for _, op := range []*Tensor{a, b} {
					for i := range op.Data {
						op.Data[i] = pool[next%len(pool)]
						next++
					}
				}
				checkKernel(t, path, kc, a, b, m, k, n)
			}
		}
	})
}

// BenchmarkMatMulKernels times each kernel at the two Linear shapes a served
// session cycle meets on OTA1's 527 PP edges at Hidden 24: the rbf layer
// x[527×12]·W[12×24] and the message layer [527×24]·[24×24]. Into is the
// forward x·W, ABT the input gradient dY·Wᵀ and ATB, in training, the weight
// gradient xᵀ·dY. Each kernel runs on the SIMD path (where available), on
// the Go kernels alone (go) and as the naive loop the blocked kernels
// replaced (ref).
func BenchmarkMatMulKernels(b *testing.B) {
	const rows = 527
	rng := rand.New(rand.NewSource(1))
	for _, layer := range []struct {
		name    string
		in, out int
	}{{"rbf", 12, 24}, {"pp", 24, 24}} {
		for _, kc := range kernelCases {
			m, k, n := rows, layer.in, layer.out
			switch kc.name {
			case "ABT":
				k, n = layer.out, layer.in
			case "ATB":
				m, k = layer.in, rows
			}
			a, bb := kc.operands(m, k, n)
			fillOperand(rng, a, 0, kernelSpecials)
			fillOperand(rng, bb, 0, kernelSpecials)
			out := New(m, n)
			arms := append(kernelPaths(), "ref")
			for _, arm := range arms {
				b.Run(layer.name+"/"+kc.name+"/"+arm, func(b *testing.B) {
					fn := kc.kernel
					if arm == "ref" {
						fn = kc.ref
					} else {
						onPath(b, arm)
					}
					for i := 0; i < b.N; i++ {
						fn(out, a, bb)
					}
				})
			}
		}
	}
}
