//go:build amd64

#include "textflag.h"

// Row encoder kernels of the vector family (encode_vector.go has the
// contract and the driver). Each call walks rows ≥ 1 consecutive rows of
// cols ≥ 1 float32 values; a row is cut into full vectors of 8 and one
// tail of 1–8 values, read by a masked load, so nothing past the last
// row is ever touched. Both kernels are AVX. MXCSR is left as Go runs
// it: round-to-nearest, denormals honored, exceptions masked. Go lists
// sources last-first, so "VMINPS acc, v, acc" is Intel's VMINPS acc, v,
// acc: v < acc ? v : acc.
//
// Register plan: SI src, R10 cols, BX rows left, R8/R9 lo/hi or
// scale/bias, DI dst, R11 nibbles, DX values left in the row.

DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

DATA lowbytes<>+0(SB)/8, $0x00ff00ff00ff00ff
DATA lowbytes<>+8(SB)/8, $0x00ff00ff00ff00ff
GLOBL lowbytes<>(SB), RODATA|NOPTR, $16

DATA half<>+0(SB)/4, $0x3f000000
GLOBL half<>(SB), RODATA|NOPTR, $4

DATA maxf<>+0(SB)/4, $0x7f7fffff
GLOBL maxf<>(SB), RODATA|NOPTR, $4

DATA negmaxf<>+0(SB)/4, $0xff7fffff
GLOBL negmaxf<>(SB), RODATA|NOPTR, $4

// TAIL sets AX to the row's tail length ((cols−1) mod 8 + 1) and Y7 to
// its lane mask (all ones in the first AX dwords).
#define TAIL \
	LEAQ    -1(R10), AX; \
	ANDQ    $7, AX; \
	INCQ    AX; \
	MOVQ    $8, DX; \
	SUBQ    AX, DX; \
	LEAQ    tailmask<>(SB), CX; \
	VMOVDQU (CX)(DX*4), Y7

// REDUCE folds the running bounds Y0 (lo) and Y1 (hi) to their least and
// greatest lane and stores them at R8 and R9. The lanes hold no NaN.
#define REDUCE \
	VEXTRACTF128 $1, Y0, X2; \
	VMINPS       X2, X0, X0; \
	VEXTRACTF128 $1, Y1, X3; \
	VMAXPS       X3, X1, X1; \
	VPERMILPS    $0x4e, X0, X2; \
	VMINPS       X2, X0, X0; \
	VPERMILPS    $0x4e, X1, X3; \
	VMAXPS       X3, X1, X1; \
	VPERMILPS    $0xb1, X0, X2; \
	VMINSS       X2, X0, X0; \
	VPERMILPS    $0xb1, X1, X3; \
	VMAXSS       X3, X1, X1; \
	VMOVSS       X0, (R8); \
	VMOVSS       X1, (R9)

// func rangeRows(src *float32, cols, rows int, lo, hi *float32)
TEXT ·rangeRows(SB), NOSPLIT, $0-40
	MOVQ         src+0(FP), SI
	MOVQ         cols+8(FP), R10
	MOVQ         rows+16(FP), BX
	MOVQ         lo+24(FP), R8
	MOVQ         hi+32(FP), R9
	TAIL
	VBROADCASTSS maxf<>(SB), Y14
	VBROADCASTSS negmaxf<>(SB), Y15

rrow:
	VMOVAPS Y14, Y0
	VMOVAPS Y15, Y1
	MOVQ    R10, DX

rfull:
	CMPQ    DX, $8
	JLE     rtail
	VMOVUPS (SI), Y2
	VMINPS  Y0, Y2, Y0
	VMAXPS  Y1, Y2, Y1
	ADDQ    $32, SI
	SUBQ    $8, DX
	JMP     rfull

rtail:
	VMASKMOVPS (SI), Y7, Y2
	VBLENDVPS  Y7, Y2, Y0, Y3 // lanes outside Y7 compare the bound with itself
	VMINPS     Y0, Y3, Y0
	VBLENDVPS  Y7, Y2, Y1, Y3
	VMAXPS     Y1, Y3, Y1
	LEAQ       (SI)(DX*4), SI
	REDUCE
	ADDQ       $4, R8
	ADDQ       $4, R9
	DECQ       BX
	JNZ        rrow
	VZEROUPPER
	RET

// CODES turns the values in Y0 into dword codes against scale Y3 and
// bias Y4: x = (v − bias)/scale; 0 where not x ≥ 0.5 (Y5), else
// trunc(min(x, levels Y6) + 0.5). The compare leaves an all-ones lane
// mask in Y2, and the truncated codes are ANDed with it.
#define CODES \
	VSUBPS     Y4, Y0, Y0; \
	VDIVPS     Y3, Y0, Y0; \
	VCMPPS     $0x1d, Y5, Y0, Y2; \
	VMINPS     Y6, Y0, Y0; \
	VADDPS     Y5, Y0, Y0; \
	VCVTTPS2DQ Y0, Y0; \
	VANDPS     Y2, Y0, Y0

// PACK narrows the 8 dword codes in Y0 to bytes 0–7 of X0.
#define PACK \
	VEXTRACTF128 $1, Y0, X1; \
	VPACKUSDW    X1, X0, X0; \
	VPACKUSWB    X0, X0, X0

// NIBBLES packs bytes 0–7 of X0 two to a byte into bytes 0–3: each
// word's high byte shifted down into its low byte's high nibble.
#define NIBBLES \
	VPSRLW    $4, X0, X1; \
	VPOR      X1, X0, X0; \
	VPAND     X8, X0, X0; \
	VPACKUSWB X0, X0, X0

// func encodeRows(src *float32, cols, rows int, scale, bias *float32, dst *byte, levels float32, nibbles bool)
TEXT ·encodeRows(SB), NOSPLIT, $0-53
	MOVQ         src+0(FP), SI
	MOVQ         cols+8(FP), R10
	MOVQ         rows+16(FP), BX
	MOVQ         scale+24(FP), R8
	MOVQ         bias+32(FP), R9
	MOVQ         dst+40(FP), DI
	VBROADCASTSS levels+48(FP), Y6
	MOVBQZX      nibbles+52(FP), R11
	VBROADCASTSS half<>(SB), Y5
	VMOVDQU      lowbytes<>(SB), X8
	TAIL

erow:
	VBROADCASTSS (R9), Y4
	VBROADCASTSS (R8), Y3
	MOVQ         R10, DX

efull:
	CMPQ    DX, $8
	JLE     etail
	VMOVUPS (SI), Y0
	CODES
	PACK
	TESTQ   R11, R11
	JNZ     efulln
	VMOVQ   X0, (DI)
	ADDQ    $8, DI
	JMP     efullnext

efulln:
	NIBBLES
	VMOVD X0, (DI)
	ADDQ  $4, DI

efullnext:
	ADDQ $32, SI
	SUBQ $8, DX
	JMP  efull

etail:
	VMASKMOVPS (SI), Y7, Y0
	CODES
	VANDPS     Y7, Y0, Y0 // lanes past the row: code 0, the odd tail's high nibble
	PACK
	MOVQ       DX, CX     // bytes to store
	TESTQ      R11, R11
	JZ         etailst
	NIBBLES
	INCQ       CX
	SHRQ       $1, CX

etailst:
	VMOVQ X0, AX

estore:
	MOVB AX, (DI)
	SHRQ $8, AX
	INCQ DI
	DECQ CX
	JNZ  estore

	LEAQ (SI)(DX*4), SI
	ADDQ $4, R8
	ADDQ $4, R9
	DECQ BX
	JNZ  erow
	VZEROUPPER
	RET
