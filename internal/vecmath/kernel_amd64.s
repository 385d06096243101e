#include "textflag.h"

// The wide squared-L2 kernels. Each measures a fixed group of rows against
// one query q with 256-bit lanes, one lane per row: four elements of four
// rows are loaded, subtracted from q's four elements (q − row, the scalar
// loop's order) and squared (VMULPD, never a fused multiply-add); a 4×4
// transpose then gives each row a lane of its own, and four VADDPDs add the
// four terms into the accumulator in element order. Every lane is therefore
// the scalar loop's one accumulator, with its bits. The d mod 4 tail goes
// one element at a time, still in order. The Go wrapper has checked that
// every row is len(q) long; the kernels read exactly that many elements.

// SQDIFF4 loads elements AX..AX+3 of the rows at r0..r3 and leaves
// (q − row)² in y0..y3; Y2 holds q's four elements.
#define SQDIFF4(r0, r1, r2, r3, y0, y1, y2, y3) \
	VSUBPD (r0)(AX*8), Y2, y0; \
	VSUBPD (r1)(AX*8), Y2, y1; \
	VSUBPD (r2)(AX*8), Y2, y2; \
	VSUBPD (r3)(AX*8), Y2, y3; \
	VMULPD y0, y0, y0; \
	VMULPD y1, y1, y1; \
	VMULPD y2, y2, y2; \
	VMULPD y3, y3, y3

// ADDCOLUMNS transposes the four rows of terms in y0..y3 into four columns
// (column j holds element j of every row, row i in lane i) and adds them
// to acc in element order. Y11..Y14 are scratch.
#define ADDCOLUMNS(y0, y1, y2, y3, acc) \
	VUNPCKLPD y1, y0, Y11; \
	VUNPCKHPD y1, y0, Y12; \
	VUNPCKLPD y3, y2, Y13; \
	VUNPCKHPD y3, y2, Y14; \
	VPERM2F128 $0x20, Y13, Y11, y0; \
	VPERM2F128 $0x20, Y14, Y12, y1; \
	VPERM2F128 $0x31, Y13, Y11, y2; \
	VPERM2F128 $0x31, Y14, Y12, y3; \
	VADDPD y0, acc, acc; \
	VADDPD y1, acc, acc; \
	VADDPD y2, acc, acc; \
	VADDPD y3, acc, acc

// SQTAIL adds (q[AX] − row[AX])² of the rows at r0..r3 to acc, row i in
// lane i; Y2 holds q[AX] in every lane. y0 and y1 are scratch.
#define SQTAIL(r0, r1, r2, r3, y0, x0, y1, x1, acc) \
	VMOVSD (r0)(AX*8), x0; \
	VMOVHPD (r1)(AX*8), x0, x0; \
	VMOVSD (r2)(AX*8), x1; \
	VMOVHPD (r3)(AX*8), x1, x1; \
	VINSERTF128 $1, x1, y0, y0; \
	VSUBPD y0, Y2, y0; \
	VMULPD y0, y0, y0; \
	VADDPD y0, acc, acc

// func squaredRows8(q []float64, rows *[8][]float64, out *[8]float64)
//
// Two groups of four rows a pass, each with its own accumulator (Y0 for
// rows 0-3, Y1 for rows 4-7), so the CPU has two independent add chains.
TEXT ·squaredRows8(SB), NOSPLIT, $0-40
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), BX
	MOVQ rows+24(FP), DI
	MOVQ 0(DI), R8
	MOVQ 24(DI), R9
	MOVQ 48(DI), R10
	MOVQ 72(DI), R11
	MOVQ 96(DI), R12
	MOVQ 120(DI), R13
	MOVQ 144(DI), DX
	MOVQ 168(DI), DI
	MOVQ BX, CX
	ANDQ $-4, CX
	XORQ AX, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPQ AX, CX
	JGE  tail8

loop8:
	VMOVUPD (SI)(AX*8), Y2
	SQDIFF4(R8, R9, R10, R11, Y3, Y4, Y5, Y6)
	SQDIFF4(R12, R13, DX, DI, Y7, Y8, Y9, Y10)
	ADDCOLUMNS(Y3, Y4, Y5, Y6, Y0)
	ADDCOLUMNS(Y7, Y8, Y9, Y10, Y1)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop8

tail8:
	CMPQ AX, BX
	JGE  done8

tailloop8:
	VBROADCASTSD (SI)(AX*8), Y2
	SQTAIL(R8, R9, R10, R11, Y3, X3, Y4, X4, Y0)
	SQTAIL(R12, R13, DX, DI, Y5, X5, Y6, X6, Y1)
	INCQ AX
	CMPQ AX, BX
	JLT  tailloop8

done8:
	MOVQ    out+32(FP), AX
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VZEROUPPER
	RET

// func squaredRows4(q []float64, rows *[4][]float64, out *[4]float64)
TEXT ·squaredRows4(SB), NOSPLIT, $0-40
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), BX
	MOVQ rows+24(FP), DI
	MOVQ 0(DI), R8
	MOVQ 24(DI), R9
	MOVQ 48(DI), R10
	MOVQ 72(DI), R11
	MOVQ BX, CX
	ANDQ $-4, CX
	XORQ AX, AX
	VXORPD Y0, Y0, Y0
	CMPQ AX, CX
	JGE  tail4

loop4:
	VMOVUPD (SI)(AX*8), Y2
	SQDIFF4(R8, R9, R10, R11, Y3, Y4, Y5, Y6)
	ADDCOLUMNS(Y3, Y4, Y5, Y6, Y0)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop4

tail4:
	CMPQ AX, BX
	JGE  done4

tailloop4:
	VBROADCASTSD (SI)(AX*8), Y2
	SQTAIL(R8, R9, R10, R11, Y3, X3, Y4, X4, Y0)
	INCQ AX
	CMPQ AX, BX
	JLT  tailloop4

done4:
	MOVQ    out+32(FP), AX
	VMOVUPD Y0, 0(AX)
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
