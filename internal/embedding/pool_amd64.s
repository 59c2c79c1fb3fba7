// Row-sum and row-prefetch kernels of the vector family's pooling path
// (pool.go has the contract and the Go driver). Both take a chunk of
// sumJob values — bags whose indices Pool has validated: fp32 bags
// for the row-sum, fp32 and quantized ones for the prefetch — and read
// them through the offsets go_asm.h generates.
//
// Operand-order note: every add is acc = acc + row with the accumulator
// as the first source (Go syntax lists sources last-first): x86 returns
// the first source's quiet NaN when both operands are NaN, the generic
// Go kernel spells the same rule out, and TestSLSPackedDifferential pins
// the two against each other on NaN-payload rows. No FMA. MXCSR is left
// untouched: round-to-nearest, denormals honored, exactly as compiled Go
// code runs.

#include "textflag.h"
#include "go_asm.h"

// LOADJOB unpacks the job at R12: DI = its output row, DX = floats per
// row, BX = the table's first row (of values, or of codes), R8 = bytes
// from one row to the next, SI/CX = its indices.
#define LOADJOB \
	MOVQ sumJob_dst(R12), DI; \
	MOVQ sumJob_dst+8(R12), DX; \
	MOVQ sumJob_rows(R12), BX; \
	MOVQ sumJob_stride(R12), R8; \
	MOVQ sumJob_indices(R12), SI; \
	MOVQ sumJob_indices+8(R12), CX

// ROWOFF loads index R10 and turns it into the row's byte offset from the
// (column-advanced) table base BX.
#define ROWOFF \
	MOVLQSX (SI)(R10*4), R9; \
	IMULQ   R8, R9

// func sumJobsAVX(jobs *sumJob, n int)
//
// For each of the n ≥ 1 jobs: dst[0:dim] = ((+0 + row[idx[0]]) + row[idx[1]])
// + … over its ≥ 1 indices, dim a multiple of 8. A block of 32, 16 or 8
// columns is summed over the whole index list in registers and stored
// once; dst is never read.
TEXT ·sumJobsAVX(SB), NOSPLIT, $0-16
	MOVQ jobs+0(FP), R12
	MOVQ n+8(FP), R13

job:
	LOADJOB

block32:
	CMPQ   DX, $32
	JLT    block16
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   R10, R10

loop32:
	ROWOFF
	VADDPS  (BX)(R9*1), Y0, Y0
	VADDPS  32(BX)(R9*1), Y1, Y1
	VADDPS  64(BX)(R9*1), Y2, Y2
	VADDPS  96(BX)(R9*1), Y3, Y3
	INCQ    R10
	CMPQ    R10, CX
	JLT     loop32
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $32, DX
	JMP     block32

block16:
	CMPQ   DX, $16
	JLT    block8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ   R10, R10

loop16:
	ROWOFF
	VADDPS  (BX)(R9*1), Y0, Y0
	VADDPS  32(BX)(R9*1), Y1, Y1
	INCQ    R10
	CMPQ    R10, CX
	JLT     loop16
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $16, DX

block8:
	CMPQ   DX, $8
	JLT    next
	VXORPS Y0, Y0, Y0
	XORQ   R10, R10

loop8:
	ROWOFF
	VADDPS  (BX)(R9*1), Y0, Y0
	INCQ    R10
	CMPQ    R10, CX
	JLT     loop8
	VMOVUPS Y0, (DI)

next:
	ADDQ $sumJob__size, R12
	DECQ R13
	JNZ  job
	VZEROUPPER
	RET

// func prefetchJobs(jobs *sumJob, n int)
//
// Issues PREFETCHT0 for every cache line the rows of the n jobs will
// read, back to back, so the misses (and the page walks under them)
// overlap: an fp32 row's values; a quantized row's fp16 scale, fp16 bias
// and every line of its codes. A prefetch never faults and changes no
// architectural state: this is a hint and nothing else.
TEXT ·prefetchJobs(SB), NOSPLIT, $0-16
	MOVQ jobs+0(FP), R12
	MOVQ n+8(FP), R13

pjob:
	LOADJOB
	MOVQ sumJob_scales(R12), AX // nil for an fp32 job
	MOVQ sumJob_biases(R12), DX
	XORQ R10, R10

prow:
	MOVLQSX    (SI)(R10*4), R9
	TESTQ      AX, AX
	JZ         pvalues
	PREFETCHT0 (AX)(R9*2)
	PREFETCHT0 (DX)(R9*2)

pvalues:
	IMULQ R8, R9
	ADDQ  BX, R9
	LEAQ -1(R9)(R8*1), R11 // the row's last byte
	ANDQ $-64, R9

pline:
	PREFETCHT0 (R9)
	ADDQ $64, R9
	CMPQ R9, R11
	JLE  pline
	INCQ R10
	CMPQ R10, CX
	JLT  prow
	ADDQ $sumJob__size, R12
	DECQ R13
	JNZ  pjob
	RET
