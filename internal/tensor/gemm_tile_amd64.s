// Register-tiled GEMM micro-kernels (gemm_tile_amd64.go has the shapes,
// the bitwise argument and the Go driver). Each call owns sixteen vector
// accumulators (eight at 8 lanes) for the whole ascending k loop, then
// applies bias and ReLU in registers and writes dst exactly once.
//
// Operand-order note: per element a k step computes t = a*b then
// acc = t+acc, with b as the multiply's first source and t as the add's
// (Go syntax lists sources last-first) — the order the NaN-payload probes
// in internal/kerneltest pin, since x86 returns the first source's quiet
// NaN when both operands are NaN. No FMA anywhere. MXCSR is left
// untouched: round-to-nearest, denormals honored, exactly as compiled Go
// code runs.

#include "textflag.h"

// ROW16 is one row's share of a tile k step at 16 lanes: broadcast the
// row's a value, turn "a is not ±0" into write-mask K1 (NEQ_UQ: NaN
// counts as nonzero, −0 as zero), and multiply-then-add the step's four
// b vectors Z16..Z19 into the row's accumulators under K1. A masked-off
// add leaves the accumulator's bits alone — the generic kernel's skipped
// step.
#define ROW16(AR, C0, C1, C2, C3) \
	VBROADCASTSS (AR)(CX*4), Z20; \
	VCMPPS       $4, Z31, Z20, K1; \
	VMULPS       Z20, Z16, Z24; \
	VADDPS       C0, Z24, K1, C0; \
	VMULPS       Z20, Z17, Z25; \
	VADDPS       C1, Z25, K1, C1; \
	VMULPS       Z20, Z18, Z26; \
	VADDPS       C2, Z26, K1, C2; \
	VMULPS       Z20, Z19, Z27; \
	VADDPS       C3, Z27, K1, C3

// ROW16N is ROW16 for a tile at most one vector wide — the n = 1 scoring
// layers — which has only the first b vector and accumulator to do.
#define ROW16N(AR, C0) \
	VBROADCASTSS (AR)(CX*4), Z20; \
	VCMPPS       $4, Z31, Z20, K1; \
	VMULPS       Z20, Z16, Z24; \
	VADDPS       C0, Z24, K1, C0

// STRIP16 is one 64-column strip's share of a row-kernel k step: the
// broadcast a value Z20 is known nonzero (the step was not skipped), so
// the adds are unmasked.
#define STRIP16(OFF, C0, C1, C2, C3) \
	VMOVUPS OFF+0(BX), Z16; \
	VMULPS  Z20, Z16, Z24; \
	VADDPS  C0, Z24, C0; \
	VMOVUPS OFF+64(BX), Z17; \
	VMULPS  Z20, Z17, Z25; \
	VADDPS  C1, Z25, C1; \
	VMOVUPS OFF+128(BX), Z18; \
	VMULPS  Z20, Z18, Z26; \
	VADDPS  C2, Z26, C2; \
	VMOVUPS OFF+192(BX), Z19; \
	VMULPS  Z20, Z19, Z27; \
	VADDPS  C3, Z27, C3

// STORE16 finishes four accumulators going to 64 columns at (DI), with
// their bias at (SI) unless the bias base R9 is nil. Bias is added after
// the full k sum with the accumulator as first source; ReLU zeroes lanes
// that compare < 0 (LT_OQ under the relu mask K3, so NaN and −0 pass
// through exactly as ReLUSlice leaves them). Loads and stores are masked
// by the column masks K4..K7: a dead lane touches no memory.
#define STORE16(C0, C1, C2, C3, NOBIAS) \
	TESTQ   R9, R9; \
	JZ      NOBIAS; \
	VADDPS  (SI), C0, K4, C0; \
	VADDPS  64(SI), C1, K5, C1; \
	VADDPS  128(SI), C2, K6, C2; \
	VADDPS  192(SI), C3, K7, C3; \
NOBIAS: \
	VCMPPS  $17, Z31, C0, K3, K2; \
	VMOVAPS Z31, K2, C0; \
	VMOVUPS C0, K4, (DI); \
	VCMPPS  $17, Z31, C1, K3, K2; \
	VMOVAPS Z31, K2, C1; \
	VMOVUPS C1, K5, 64(DI); \
	VCMPPS  $17, Z31, C2, K3, K2; \
	VMOVAPS Z31, K2, C2; \
	VMOVUPS C2, K6, 128(DI); \
	VCMPPS  $17, Z31, C3, K3, K2; \
	VMOVAPS Z31, K2, C3; \
	VMOVUPS C3, K7, 192(DI)

#define ZERO16 \
	VPXORD Z0, Z0, Z0; \
	VPXORD Z1, Z1, Z1; \
	VPXORD Z2, Z2, Z2; \
	VPXORD Z3, Z3, Z3; \
	VPXORD Z4, Z4, Z4; \
	VPXORD Z5, Z5, Z5; \
	VPXORD Z6, Z6, Z6; \
	VPXORD Z7, Z7, Z7; \
	VPXORD Z8, Z8, Z8; \
	VPXORD Z9, Z9, Z9; \
	VPXORD Z10, Z10, Z10; \
	VPXORD Z11, Z11, Z11; \
	VPXORD Z12, Z12, Z12; \
	VPXORD Z13, Z13, Z13; \
	VPXORD Z14, Z14, Z14; \
	VPXORD Z15, Z15, Z15; \
	VPXORD Z31, Z31, Z31

// BLOCKPTR turns the handle in R into the address of its block: the
// slot's storage is at SI and handle h names the value at index h−1; an
// absent block (h = 0) reads the block of zeros at CX.
#define BLOCKPTR(R) \
	TESTL   R, R; \
	LEAQ    -4(SI)(R*4), R; \
	CMOVQEQ CX, R

// TILESLOT starts a tile's next slot. AX is the slot cursor (the nslots
// argument's place holds its end), DI points at the first row's handle
// for the slot and hstride has been scaled to bytes. It loads the rows'
// handles — an absent row of a short tile aliases row 0, so the k loop
// needs no row count (its sums are never stored) — and goes to SKIP when
// no row has a block in this slot, to STORE past the last slot. Else it
// leaves the four a block pointers in R8, R10, R11, R12, the slot's first
// b row in BX, and the k loop's bounds in CX = 0 and DX = Width.
#define TILESLOT(SKIP, STORE, HSET) \
	CMPQ  AX, nslots+8(FP); \
	JGE   STORE; \
	MOVL  (DI), R8; \
	MOVL  R8, R10; \
	MOVL  R8, R11; \
	MOVL  R8, R12; \
	CMPQ  rows+72(FP), $2; \
	JL    HSET; \
	MOVL  4(DI), R10; \
	CMPQ  rows+72(FP), $3; \
	JL    HSET; \
	MOVL  8(DI), R11; \
	CMPQ  rows+72(FP), $4; \
	JL    HSET; \
	MOVL  12(DI), R12; \
HSET: \
	MOVL  R8, SI; \
	ORL   R10, SI; \
	ORL   R11, SI; \
	ORL   R12, SI; \
	JZ    SKIP; \
	MOVQ  (AX), SI; \
	LEAQ  ·zeroBlock(SB), CX; \
	BLOCKPTR(R8); \
	BLOCKPTR(R10); \
	BLOCKPTR(R11); \
	BLOCKPTR(R12); \
	MOVL  24(AX), BX; \
	IMULQ R13, BX; \
	ADDQ  b+32(FP), BX; \
	MOVL  28(AX), DX; \
	XORQ  CX, CX

// TILESLOTS sets up the slot walk of a tile: the slot cursor and its end,
// the handle cursor, and hstride in bytes.
#define TILESLOTS \
	MOVQ slots+0(FP), AX; \
	MOVQ nslots+8(FP), SI; \
	SHLQ $5, SI; \
	ADDQ AX, SI; \
	MOVQ SI, nslots+8(FP); \
	SHLQ $2, hstride+24(FP); \
	MOVQ h+16(FP), DI

// NEXTSLOT moves the cursors of a tile's slot walk on by one slot.
#define NEXTSLOT \
	ADDQ $32, AX; \
	ADDQ hstride+24(FP), DI

// ROWSLOT is TILESLOT for the row kernel, whose one row skips a slot it
// has no block in: AX and R11 are the slot cursor and its end, DI the
// handle cursor, R9 the first b column; the block's address is left in
// R8.
#define ROWSLOT(SKIP, STORE) \
	CMPQ  AX, R11; \
	JGE   STORE; \
	MOVL  (DI), SI; \
	TESTL SI, SI; \
	JZ    SKIP; \
	MOVQ  (AX), R8; \
	LEAQ  -4(R8)(SI*4), R8; \
	MOVL  24(AX), BX; \
	IMULQ R13, BX; \
	ADDQ  R9, BX; \
	MOVL  28(AX), DX; \
	XORQ  CX, CX

// ROWSLOTS sets up the row kernel's slot walk; R12 is hstride in bytes.
#define ROWSLOTS \
	MOVQ slots+0(FP), AX; \
	MOVQ nslots+8(FP), R11; \
	SHLQ $5, R11; \
	ADDQ AX, R11; \
	MOVQ hstride+24(FP), R12; \
	SHLQ $2, R12; \
	MOVQ h+16(FP), DI; \
	MOVQ b+32(FP), R9

// ALLZERO skips to NEXT when the tile's four a values of this k step
// are all ±0: OR their bit patterns and shift the sign bit out.
#define ALLZERO(NEXT) \
	MOVL (R8)(CX*4), SI; \
	ORL  (R10)(CX*4), SI; \
	ORL  (R11)(CX*4), SI; \
	ORL  (R12)(CX*4), SI; \
	ADDL SI, SI; \
	JZ   NEXT

// func gemmTile16(slots *BlockSlot, nslots int, h *uint32, hstride int, b, d, bias *float32, ldb, dstride, rows int, cmask uint64, relu int)
//
// A tile of `rows` (1–4) dst rows × up to 64 columns (bit i of cmask
// set: column i is live). Each b vector is loaded once per k step and
// shared by the rows.
TEXT ·gemmTile16(SB), NOSPLIT, $0-96
	MOVQ  ldb+56(FP), R13
	MOVQ  cmask+80(FP), SI
	KMOVW SI, K4
	SHRQ  $16, SI
	KMOVW SI, K5
	SHRQ  $16, SI
	KMOVW SI, K6
	SHRQ  $16, SI
	KMOVW SI, K7
	ZERO16
	TILESLOTS
	KORTESTW K5, K5
	JZ    nslot
	MOVQ  R13, R9
	SHLQ  $4, R9

slot:
	TILESLOT(skip, store, hset)

loop:
	ALLZERO(next)

	// The strip's b rows sit a whole b row apart, a stride the hardware
	// prefetchers do not follow: ask for the row 16 steps ahead.
	PREFETCHT0 (BX)(R9*1)
	PREFETCHT0 64(BX)(R9*1)
	PREFETCHT0 128(BX)(R9*1)
	PREFETCHT0 192(BX)(R9*1)
	VMOVUPS.Z (BX), K4, Z16
	VMOVUPS.Z 64(BX), K5, Z17
	VMOVUPS.Z 128(BX), K6, Z18
	VMOVUPS.Z 192(BX), K7, Z19
	ROW16(R8, Z0, Z1, Z2, Z3)
	ROW16(R10, Z4, Z5, Z6, Z7)
	ROW16(R11, Z8, Z9, Z10, Z11)
	ROW16(R12, Z12, Z13, Z14, Z15)

next:
	ADDQ R13, BX
	INCQ CX
	CMPQ CX, DX
	JLT  loop

skip:
	NEXTSLOT
	JMP  slot

nslot:
	TILESLOT(nskip, store, nhset)

nloop:
	ALLZERO(nnext)
	VMOVUPS.Z (BX), K4, Z16
	ROW16N(R8, Z0)
	ROW16N(R10, Z4)
	ROW16N(R11, Z8)
	ROW16N(R12, Z12)

nnext:
	ADDQ R13, BX
	INCQ CX
	CMPQ CX, DX
	JLT  nloop

nskip:
	NEXTSLOT
	JMP  nslot

store:
	MOVQ  d+40(FP), DI
	MOVQ  bias+48(FP), R9
	MOVQ  R9, SI
	MOVQ  dstride+64(FP), R10
	MOVQ  relu+88(FP), DX
	NEGQ  DX
	KMOVW DX, K3
	MOVQ  rows+72(FP), DX
	STORE16(Z0, Z1, Z2, Z3, nb0)
	CMPQ  DX, $2
	JL    done
	ADDQ  R10, DI
	STORE16(Z4, Z5, Z6, Z7, nb1)
	CMPQ  DX, $3
	JL    done
	ADDQ  R10, DI
	STORE16(Z8, Z9, Z10, Z11, nb2)
	CMPQ  DX, $4
	JL    done
	ADDQ  R10, DI
	STORE16(Z12, Z13, Z14, Z15, nb3)

done:
	VZEROUPPER
	RET

// func gemmRow16(slots *BlockSlot, nslots int, h *uint32, hstride int, b, d, bias *float32, ldb, strips, relu int)
//
// One dst row × `strips` (1–4) full 64-column strips: the whole output
// row in registers, and a k step whose a value is ±0 skipped by a
// branch — exactly the generic kernel's loop.
TEXT ·gemmRow16(SB), NOSPLIT, $0-80
	MOVQ ldb+56(FP), R13
	MOVQ strips+64(FP), R10
	ZERO16
	ROWSLOTS

slot:
	ROWSLOT(skip, store)

loop:
	MOVL (R8)(CX*4), SI
	ADDL SI, SI
	JZ   next
	VBROADCASTSS (R8)(CX*4), Z20
	STRIP16(0, Z0, Z1, Z2, Z3)
	CMPQ R10, $2
	JL   next
	STRIP16(256, Z4, Z5, Z6, Z7)
	CMPQ R10, $3
	JL   next
	STRIP16(512, Z8, Z9, Z10, Z11)
	CMPQ R10, $4
	JL   next
	STRIP16(768, Z12, Z13, Z14, Z15)

next:
	ADDQ R13, BX
	INCQ CX
	CMPQ CX, DX
	JLT  loop

skip:
	ADDQ $32, AX
	ADDQ R12, DI
	JMP  slot

store:
	MOVQ   d+40(FP), DI
	MOVQ   bias+48(FP), R9
	MOVQ   R9, SI
	MOVQ   relu+72(FP), DX
	NEGQ   DX
	KMOVW  DX, K3
	KXNORW K4, K4, K4
	KXNORW K5, K5, K5
	KXNORW K6, K6, K6
	KXNORW K7, K7, K7
	STORE16(Z0, Z1, Z2, Z3, nb0)
	CMPQ   R10, $2
	JL     done
	ADDQ   $256, DI
	ADDQ   $256, SI
	STORE16(Z4, Z5, Z6, Z7, nb1)
	CMPQ   R10, $3
	JL     done
	ADDQ   $256, DI
	ADDQ   $256, SI
	STORE16(Z8, Z9, Z10, Z11, nb2)
	CMPQ   R10, $4
	JL     done
	ADDQ   $256, DI
	ADDQ   $256, SI
	STORE16(Z12, Z13, Z14, Z15, nb3)

done:
	VZEROUPPER
	RET

// laneMask8 is eight all-ones dwords then eight zero dwords: the eight
// dwords starting (8−w)·4 bytes in are a VMASKMOVPS mask with the first
// w lanes live.
DATA laneMask8<>+0(SB)/8, $0xffffffffffffffff
DATA laneMask8<>+8(SB)/8, $0xffffffffffffffff
DATA laneMask8<>+16(SB)/8, $0xffffffffffffffff
DATA laneMask8<>+24(SB)/8, $0xffffffffffffffff
DATA laneMask8<>+32(SB)/8, $0
DATA laneMask8<>+40(SB)/8, $0
DATA laneMask8<>+48(SB)/8, $0
DATA laneMask8<>+56(SB)/8, $0
GLOBL laneMask8<>(SB), RODATA|NOPTR, $64

// ROW8 is ROW16 at 8 lanes, where there are no write masks: the product
// is ANDed with the all-ones / all-zeros "a is not ±0" mask Y11, so a
// skipped step adds +0 — the identity on an accumulator that can never
// be −0 (gemm_tile_amd64.go has the argument). Y8, Y9 are the step's b
// vectors.
#define ROW8(AR, C0, C1) \
	VBROADCASTSS (AR)(CX*4), Y10; \
	VCMPPS       $4, Y15, Y10, Y11; \
	VMULPS       Y10, Y8, Y12; \
	VANDPS       Y11, Y12, Y12; \
	VADDPS       C0, Y12, C0; \
	VMULPS       Y10, Y9, Y12; \
	VANDPS       Y11, Y12, Y12; \
	VADDPS       C1, Y12, C1

// ROW8N is ROW16N at 8 lanes.
#define ROW8N(AR, C0) \
	VBROADCASTSS (AR)(CX*4), Y10; \
	VCMPPS       $4, Y15, Y10, Y11; \
	VMULPS       Y10, Y8, Y12; \
	VANDPS       Y11, Y12, Y12; \
	VADDPS       C0, Y12, C0

// STRIP8 is STRIP16 for a 16-column strip.
#define STRIP8(OFF, C0, C1) \
	VMOVUPS OFF+0(BX), Y8; \
	VMULPS  Y10, Y8, Y12; \
	VADDPS  C0, Y12, C0; \
	VMOVUPS OFF+32(BX), Y9; \
	VMULPS  Y10, Y9, Y12; \
	VADDPS  C1, Y12, C1

// STORE8 is STORE16 for two accumulators going to 16 columns: Y13, Y14
// are the column masks, Y11 the relu mask (all ones or all zeros), and
// v < 0 lanes are cleared with ANDN.
#define STORE8(C0, C1, NOBIAS) \
	TESTQ      R9, R9; \
	JZ         NOBIAS; \
	VMASKMOVPS (SI), Y13, Y8; \
	VADDPS     Y8, C0, C0; \
	VMASKMOVPS 32(SI), Y14, Y9; \
	VADDPS     Y9, C1, C1; \
NOBIAS: \
	VCMPPS     $17, Y15, C0, Y12; \
	VANDPS     Y11, Y12, Y12; \
	VANDNPS    C0, Y12, C0; \
	VMASKMOVPS C0, Y13, (DI); \
	VCMPPS     $17, Y15, C1, Y12; \
	VANDPS     Y11, Y12, Y12; \
	VANDNPS    C1, Y12, C1; \
	VMASKMOVPS C1, Y14, 32(DI)

#define ZERO8 \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7; \
	VXORPS Y15, Y15, Y15

// RELUMASK8 loads Y11 with all ones when the relu flag in DX is 1 and
// all zeros when it is 0.
#define RELUMASK8 \
	SHLQ    $5, DX; \
	NEGQ    DX; \
	LEAQ    laneMask8<>(SB), AX; \
	VMOVDQU 32(AX)(DX*1), Y11

// func gemmTile8(slots *BlockSlot, nslots int, h *uint32, hstride int, b, d, bias *float32, ldb, dstride, rows int, cmask uint64, relu int)
//
// gemmTile16 at 8 lanes: `rows` (1–4) dst rows × up to 16 columns.
TEXT ·gemmTile8(SB), NOSPLIT, $0-96
	// Column masks: w = live columns (cmask is 1–16 contiguous low bits);
	// vector 0 gets min(w, 8) lanes and vector 1 the rest.
	MOVQ    cmask+80(FP), SI
	BSRQ    SI, SI
	INCQ    SI
	MOVQ    $8, DX
	CMPQ    SI, DX
	CMOVQLT SI, DX
	SUBQ    DX, SI
	NEGQ    DX
	NEGQ    SI
	LEAQ    laneMask8<>(SB), AX
	VMOVDQU 32(AX)(DX*4), Y13
	VMOVDQU 32(AX)(SI*4), Y14
	MOVQ    ldb+56(FP), R13
	ZERO8
	TILESLOTS
	CMPQ    cmask+80(FP), $0x100
	JLT     nslot
	MOVQ    R13, R9
	SHLQ    $4, R9

slot:
	TILESLOT(skip, store, hset)

loop:
	ALLZERO(next)
	PREFETCHT0 (BX)(R9*1)
	VMASKMOVPS (BX), Y13, Y8
	VMASKMOVPS 32(BX), Y14, Y9
	ROW8(R8, Y0, Y1)
	ROW8(R10, Y2, Y3)
	ROW8(R11, Y4, Y5)
	ROW8(R12, Y6, Y7)

next:
	ADDQ R13, BX
	INCQ CX
	CMPQ CX, DX
	JLT  loop

skip:
	NEXTSLOT
	JMP  slot

nslot:
	TILESLOT(nskip, store, nhset)

nloop:
	ALLZERO(nnext)
	VMASKMOVPS (BX), Y13, Y8
	ROW8N(R8, Y0)
	ROW8N(R10, Y2)
	ROW8N(R11, Y4)
	ROW8N(R12, Y6)

nnext:
	ADDQ R13, BX
	INCQ CX
	CMPQ CX, DX
	JLT  nloop

nskip:
	NEXTSLOT
	JMP  nslot

store:
	MOVQ d+40(FP), DI
	MOVQ bias+48(FP), R9
	MOVQ R9, SI
	MOVQ dstride+64(FP), R10
	MOVQ relu+88(FP), DX
	RELUMASK8
	MOVQ rows+72(FP), DX
	STORE8(Y0, Y1, nb0)
	CMPQ DX, $2
	JL   done
	ADDQ R10, DI
	STORE8(Y2, Y3, nb1)
	CMPQ DX, $3
	JL   done
	ADDQ R10, DI
	STORE8(Y4, Y5, nb2)
	CMPQ DX, $4
	JL   done
	ADDQ R10, DI
	STORE8(Y6, Y7, nb3)

done:
	VZEROUPPER
	RET

// func gemmRow8(slots *BlockSlot, nslots int, h *uint32, hstride int, b, d, bias *float32, ldb, strips, relu int)
//
// gemmRow16 at 8 lanes: one dst row × `strips` (1–4) full 16-column
// strips.
TEXT ·gemmRow8(SB), NOSPLIT, $0-80
	MOVQ ldb+56(FP), R13
	MOVQ strips+64(FP), R10
	ZERO8
	ROWSLOTS

slot:
	ROWSLOT(skip, store)

loop:
	MOVL (R8)(CX*4), SI
	ADDL SI, SI
	JZ   next
	VBROADCASTSS (R8)(CX*4), Y10
	STRIP8(0, Y0, Y1)
	CMPQ R10, $2
	JL   next
	STRIP8(64, Y2, Y3)
	CMPQ R10, $3
	JL   next
	STRIP8(128, Y4, Y5)
	CMPQ R10, $4
	JL   next
	STRIP8(192, Y6, Y7)

next:
	ADDQ R13, BX
	INCQ CX
	CMPQ CX, DX
	JLT  loop

skip:
	ADDQ $32, AX
	ADDQ R12, DI
	JMP  slot

store:
	MOVQ    d+40(FP), DI
	MOVQ    bias+48(FP), R9
	MOVQ    R9, SI
	MOVQ    relu+72(FP), DX
	RELUMASK8
	VMOVDQU (AX), Y13
	VMOVDQU (AX), Y14
	STORE8(Y0, Y1, nb0)
	CMPQ    R10, $2
	JL      done
	ADDQ    $64, DI
	ADDQ    $64, SI
	STORE8(Y2, Y3, nb1)
	CMPQ    R10, $3
	JL      done
	ADDQ    $64, DI
	ADDQ    $64, SI
	STORE8(Y4, Y5, nb2)
	CMPQ    R10, $4
	JL      done
	ADDQ    $64, DI
	ADDQ    $64, SI
	STORE8(Y6, Y7, nb3)

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
