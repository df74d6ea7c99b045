// Package tensor provides the dense float64 tensors underlying the 3DGNN and
// its training stack (the reproduction's stand-in for torch tensors). Only
// the operations the model needs are implemented, but each is implemented
// carefully: shape-checked, allocation-conscious, and tested against
// reference computations.
package tensor

import (
	"fmt"
	"math"
	"math/rand"

	"analogfold/internal/fault"
)

// Tensor is a dense row-major float64 tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero tensor with the given shape.
//
// It panics on a negative dimension: shapes originate in code, not input, so
// a bad one is a programming error (input-derived shapes go through TryNew).
func New(shape ...int) *Tensor {
	t, err := TryNew(shape...)
	if err != nil {
		panic(err.Error())
	}
	return t
}

// TryNew is New for input-derived shapes: it returns a typed
// fault.ErrInvalidInput error instead of panicking.
func TryNew(shape ...int) (*Tensor, error) {
	n, err := checkedLen(shape)
	if err != nil {
		return nil, err
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}, nil
}

// checkedLen validates a shape and returns its element count, rejecting
// negative dimensions and products that overflow int — without the overflow
// check a pair of huge dimensions can wrap the product into a small (or
// negative) count and either crash make or smuggle an absurd shape past the
// length check.
func checkedLen(shape []int) (int, error) {
	n := 1
	for _, s := range shape {
		if s < 0 {
			return 0, fault.New(fault.StageEvaluation, fault.ErrInvalidInput,
				"tensor: negative dimension %v", shape)
		}
		if s > 0 && n > math.MaxInt/s {
			return 0, fault.New(fault.StageEvaluation, fault.ErrInvalidInput,
				"tensor: shape %v element count overflows", shape)
		}
		n *= s
	}
	return n, nil
}

// FromSlice wraps data in a tensor of the given shape (no copy).
//
// It panics on a length mismatch: like New, it is for code-originated
// shapes. Deserialized data goes through TryFromSlice.
func FromSlice(data []float64, shape ...int) *Tensor {
	t, err := TryFromSlice(data, shape...)
	if err != nil {
		panic(err.Error())
	}
	return t
}

// TryFromSlice is FromSlice for input-derived data (JSON datasets, parsed
// artifacts): it returns a typed fault.ErrInvalidInput error instead of
// panicking when the shape is negative or does not cover the data.
func TryFromSlice(data []float64, shape ...int) (*Tensor, error) {
	n, err := checkedLen(shape)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fault.New(fault.StageEvaluation, fault.ErrInvalidInput,
			"tensor: %v needs %d elements, got %d", shape, n, len(data))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}, nil
}

// Len returns the total element count.
func (t *Tensor) Len() int {
	n := 1
	for _, s := range t.Shape {
		n *= s
	}
	return n
}

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Rows and Cols apply to 2-D tensors.
func (t *Tensor) Rows() int { return t.Shape[0] }

// Cols returns the second dimension of a 2-D tensor.
func (t *Tensor) Cols() int { return t.Shape[1] }

// At returns the element of a 2-D tensor.
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Shape[1]+j] }

// Set writes the element of a 2-D tensor.
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Shape[1]+j] = v }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	return &Tensor{Shape: append([]int(nil), t.Shape...), Data: append([]float64(nil), t.Data...)}
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// Zero resets all elements.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Randn fills the tensor with N(0, std) noise.
func (t *Tensor) Randn(rng *rand.Rand, std float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// MatMul computes out = a @ b for 2-D tensors; out may be nil.
//
// The shape-mismatch panics in MatMul/MatMulATB/MatMulABT are deliberate
// invariant checks, not input validation: operand shapes are fixed by the
// network architecture at construction time, so a mismatch here is a wiring
// bug in model code that no caller could meaningfully recover from.
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	out := New(a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a @ b into a caller-owned tensor, assigning
// every element (out's prior contents are irrelevant).
//
// Bit-identity invariant, shared by the three kernels: each output element is
// summed from +0 in ascending p order as acc += x*y, and here a term whose a
// element is zero (either sign) is skipped. Register blocking only changes
// which elements are in flight together, never the order or the expression
// within one element, so results are the same bits as the naive triple loop
// for every input (zeros, −0, ±Inf, NaN) — kernel_test.go checks them against
// it.
//
// On amd64 CPUs with AVX2 the rows and columns of out up to the last multiple
// of 4 run in assembly (matmul_amd64.s) with the same per-element sequence
// minus the zero skip, and only when b is all finite: then a skipped term is acc + ±0 with
// acc never −0 (it starts at +0, and a sum is −0 only if both addends are), so
// keeping it changes no bits. The Go kernel computes the rest.
func MatMulInto(out, a, b *Tensor) {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if out.Dims() != 2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul out shape %v, want [%d %d]", out.Shape, m, n))
	}
	m4, n4 := simdBlock(m, k, n)
	if m4 > 0 && allFinite(b.Data) {
		for j := 0; j < n4; j += 8 {
			simdPanel(min(8, n4-j), &out.Data[j], n, &a.Data[0], k, 1, &b.Data[j], n, m4, k, false)
		}
	} else {
		m4, n4 = 0, 0
	}
	matMulGo(out.Data, a.Data, b.Data, k, n, m4, m, 0, n)
	matMulGo(out.Data, a.Data, b.Data, k, n, 0, m4, n4, n)
}

// matMulGo is the portable MatMulInto kernel over rows [i0, i1) and columns
// [j0, j1) of out. It computes 2 rows × 4 columns per pass over p, holding
// the eight accumulators in registers. An odd last row pairs with itself;
// spare columns take a 2 × 1 pass.
func matMulGo(out, ad, bd []float64, k, n, i0, i1, j0, j1 int) {
	for i := i0; i < i1; i += 2 {
		ir := min(i+1, i1-1)
		a0, a1 := ad[i*k:(i+1)*k], ad[ir*k:(ir+1)*k]
		a1 = a1[:len(a0)]
		o0, o1 := out[i*n:(i+1)*n], out[ir*n:(ir+1)*n]
		j := j0
		for ; j+4 <= j1; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			q := j // offset of b[p][j]
			for p, x0 := range a0 {
				x1, y := a1[p], bd[q:q+4:q+4]
				q += n
				if x0 != 0 {
					c00 += x0 * y[0]
					c01 += x0 * y[1]
					c02 += x0 * y[2]
					c03 += x0 * y[3]
				}
				if x1 != 0 {
					c10 += x1 * y[0]
					c11 += x1 * y[1]
					c12 += x1 * y[2]
					c13 += x1 * y[3]
				}
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
		}
		for ; j < j1; j++ {
			var c0, c1 float64
			for p, x0 := range a0 {
				x1, y := a1[p], bd[p*n+j]
				if x0 != 0 {
					c0 += x0 * y
				}
				if x1 != 0 {
					c1 += x1 * y
				}
			}
			o0[j], o1[j] = c0, c1
		}
	}
}

// MatMulATB computes aᵀ @ b (used by backprop).
func MatMulATB(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmulATB shape mismatch %v x %v", a.Shape, b.Shape))
	}
	out := New(a.Shape[1], b.Shape[1])
	MatMulATBInto(out, a, b)
	return out
}

// MatMulATBInto computes out = aᵀ @ b into a caller-owned tensor, assigning
// every element. Same invariant, blocking and SIMD condition as MatMulInto:
// ascending-p sums from +0, zero a elements skipped, AVX2 only on finite b.
func MatMulATBInto(out, a, b *Tensor) {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmulATB shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[1], a.Shape[0], b.Shape[1]
	if out.Dims() != 2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulATB out shape %v, want [%d %d]", out.Shape, m, n))
	}
	m4, n4 := simdBlock(m, k, n)
	if m4 > 0 && allFinite(b.Data) {
		for j := 0; j < n4; j += 8 {
			simdPanel(min(8, n4-j), &out.Data[j], n, &a.Data[0], 1, m, &b.Data[j], n, m4, k, false)
		}
	} else {
		m4, n4 = 0, 0
	}
	matMulATBGo(out.Data, a.Data, b.Data, m, k, n, m4, m, 0, n)
	matMulATBGo(out.Data, a.Data, b.Data, m, k, n, 0, m4, n4, n)
}

// matMulATBGo is the portable MatMulATBInto kernel over rows [i0, i1) and
// columns [j0, j1) of out, blocked like matMulGo.
func matMulATBGo(out, ad, bd []float64, m, k, n, i0, i1, j0, j1 int) {
	for i := i0; i < i1; i += 2 {
		ir := min(i+1, i1-1)
		o0, o1 := out[i*n:(i+1)*n], out[ir*n:(ir+1)*n]
		j := j0
		for ; j+4 <= j1; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			for p := 0; p < k; p++ {
				x0, x1, y := ad[p*m+i], ad[p*m+ir], bd[p*n+j:p*n+j+4:p*n+j+4]
				if x0 != 0 {
					c00 += x0 * y[0]
					c01 += x0 * y[1]
					c02 += x0 * y[2]
					c03 += x0 * y[3]
				}
				if x1 != 0 {
					c10 += x1 * y[0]
					c11 += x1 * y[1]
					c12 += x1 * y[2]
					c13 += x1 * y[3]
				}
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
		}
		for ; j < j1; j++ {
			var c0, c1 float64
			for p := 0; p < k; p++ {
				x0, x1, y := ad[p*m+i], ad[p*m+ir], bd[p*n+j]
				if x0 != 0 {
					c0 += x0 * y
				}
				if x1 != 0 {
					c1 += x1 * y
				}
			}
			o0[j], o1[j] = c0, c1
		}
	}
}

// MatMulABT computes a @ bᵀ (used by backprop).
func MatMulABT(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: matmulABT shape mismatch %v x %v", a.Shape, b.Shape))
	}
	out := New(a.Shape[0], b.Shape[0])
	MatMulABTInto(out, a, b)
	return out
}

// MatMulABTInto computes out = a @ bᵀ into a caller-owned tensor, assigning
// every element. Same invariant and blocking as MatMulInto (ascending-p sums
// from +0), but with no zero skip: each element is a plain dot product, so
// the AVX2 path matches on any data.
func MatMulABTInto(out, a, b *Tensor) {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: matmulABT shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	if out.Dims() != 2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulABT out shape %v, want [%d %d]", out.Shape, m, n))
	}
	m4, n4 := simdBlock(m, k, n)
	if m4 > 0 {
		matMulABTSIMD(out.Data, a.Data, b.Data, k, n, m4, n4)
	}
	matMulABTGo(out.Data, a.Data, b.Data, k, n, m4, m, 0, n)
	matMulABTGo(out.Data, a.Data, b.Data, k, n, 0, m4, n4, n)
}

// abtChunk is the p extent of one packed ABT panel: 64 × 8 float64s, 4 KB of
// stack.
const abtChunk = 64

// matMulABTSIMD computes rows [0, m4) × columns [0, n4) of out = a @ bᵀ on
// the AVX2 kernels. They read b by rows of p, so each panel of up to 8 rows
// of b is packed transposed into a stack buffer, abtChunk values of p at a
// time; every chunk after the first resumes the accumulators from out, which
// holds each partial sum exactly.
func matMulABTSIMD(out, ad, bd []float64, k, n, m4, n4 int) {
	var pk [abtChunk * 8]float64
	for j := 0; j < n4; j += 8 {
		w := min(8, n4-j)
		for p0 := 0; p0 < k; p0 += abtChunk {
			kc := min(abtChunk, k-p0)
			for c := 0; c < w; c++ {
				for p, v := range bd[(j+c)*k+p0 : (j+c)*k+p0+kc] {
					pk[p*w+c] = v
				}
			}
			simdPanel(w, &out[j], n, &ad[p0], k, 1, &pk[0], w, m4, kc, p0 > 0)
		}
	}
}

// matMulABTGo is the portable MatMulABTInto kernel over rows [i0, i1) and
// columns [j0, j1) of out, blocked like matMulGo.
func matMulABTGo(out, ad, bd []float64, k, n, i0, i1, j0, j1 int) {
	for i := i0; i < i1; i += 2 {
		ir := min(i+1, i1-1)
		a0, a1 := ad[i*k:(i+1)*k], ad[ir*k:(ir+1)*k]
		a1 = a1[:len(a0)]
		o0, o1 := out[i*n:(i+1)*n], out[ir*n:(ir+1)*n]
		j := j0
		for ; j+4 <= j1; j += 4 {
			b0, b1 := bd[j*k:(j+1)*k], bd[(j+1)*k:(j+2)*k]
			b2, b3 := bd[(j+2)*k:(j+3)*k], bd[(j+3)*k:(j+4)*k]
			b0, b1, b2, b3 = b0[:len(a0)], b1[:len(a0)], b2[:len(a0)], b3[:len(a0)]
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			for p, x0 := range a0 {
				x1 := a1[p]
				c00 += x0 * b0[p]
				c01 += x0 * b1[p]
				c02 += x0 * b2[p]
				c03 += x0 * b3[p]
				c10 += x1 * b0[p]
				c11 += x1 * b1[p]
				c12 += x1 * b2[p]
				c13 += x1 * b3[p]
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
		}
		for ; j < j1; j++ {
			bj := bd[j*k : (j+1)*k]
			bj = bj[:len(a0)]
			var c0, c1 float64
			for p, x0 := range a0 {
				c0 += x0 * bj[p]
				c1 += a1[p] * bj[p]
			}
			o0[j], o1[j] = c0, c1
		}
	}
}

// useSIMD switches the AVX2 kernels on; it starts as simdOK, and tests turn
// it off to run the Go kernels alone.
var useSIMD = simdOK

// simdBlock returns the rows and columns, from 0, of an m×n product over k
// that the AVX2 kernels compute: multiples of 4, or (0, 0) when they are off
// or the product has no full 4 × 4 block.
func simdBlock(m, k, n int) (m4, n4 int) {
	if !useSIMD || m < 4 || n < 4 || k == 0 {
		return 0, 0
	}
	return m &^ 3, n &^ 3
}

// allFinite reports whether no element of x is ±Inf or NaN (x−x is NaN for
// exactly those).
func allFinite(x []float64) bool {
	for _, v := range x {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// goRoundsProducts reports whether this build's Go kernels round each
// product before adding it. gc may contract acc += x*y into a fused
// multiply-add where the target has one (GOAMD64=v3 and up, arm64); the AVX2
// kernels never do, so they may only stand in for Go kernels that don't
// either. The probe sums -1 + x·x with x = 1+2⁻⁵²: rounded, x·x is 1+2⁻⁵¹
// and the sum 2⁻⁵¹; fused, the sum keeps the product's 2⁻¹⁰⁴ term.
func goRoundsProducts() bool {
	x := 1 + 0x1p-52
	out := make([]float64, 2*4)
	matMulGo(out, []float64{1, x, 1, x}, []float64{-1, -1, -1, -1, x, x, x, x}, 2, 4, 0, 2, 0, 4)
	return out[0] == 0x1p-51
}

// Apply returns a new tensor with f applied elementwise.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	out := t.Clone()
	for i, v := range out.Data {
		out.Data[i] = f(v)
	}
	return out
}

// ApplyInto writes f applied elementwise over src into a caller-owned dst of
// the same element count.
func ApplyInto(dst, src *Tensor, f func(float64) float64) {
	if len(dst.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: applyInto length mismatch %v vs %v", dst.Shape, src.Shape))
	}
	for i, v := range src.Data {
		dst.Data[i] = f(v)
	}
}

// Norm returns the L2 norm of all elements.
func (t *Tensor) Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the maximum absolute element.
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
