package tensor

// simdOK reports whether this process may run the AVX2 kernels: the CPU has
// AVX2, the OS saves YMM state, and this build's Go kernels round every
// product before adding it, as the AVX2 kernels do (see goRoundsProducts).
var simdOK = cpuHasAVX2() && goRoundsProducts()

// cpuHasAVX2 reads CPUID and XCR0: AVX2 needs the CPU feature bits and an OS
// that saves the XMM and YMM register state across context switches.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// simdPanel computes rows [0, m) of the w-column panel (w is 8 or 4) of
// c = a·b: see matmul_amd64.s for the operand layout.
func simdPanel(w int, c *float64, ldc int, a *float64, ars, aps int, b *float64, ldb, m, k int, load bool) {
	if w == 8 {
		panel8AVX2(c, ldc, a, ars, aps, b, ldb, m, k, load)
	} else {
		panel4AVX2(c, ldc, a, ars, aps, b, ldb, m, k, load)
	}
}

//go:noescape
func panel8AVX2(c *float64, ldc int, a *float64, ars, aps int, b *float64, ldb, m, k int, load bool)

//go:noescape
func panel4AVX2(c *float64, ldc int, a *float64, ars, aps int, b *float64, ldb, m, k int, load bool)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
