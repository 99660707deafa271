#!/bin/sh
# Checks the AVX-512 lane-kernel object (src/pic/LaneKernelsAvx512.cpp):
#   * it defines no external symbol without the Avx512Isa tag, so the
#     linker can never pick an AVX-512 copy of a shared inline function
#     for baseline callers;
#   * it holds no fused multiply-add, which would change bits;
#   * it holds 512-bit instructions, so the lanes really are vectorized.
# Usage: lane_isa_object.sh NM OBJDUMP OBJECT
set -eu
NM=$1 OBJDUMP=$2 OBJECT=$3
Symbols=$("$NM" -C --defined-only --extern-only "$OBJECT" | cut -d' ' -f3-)
if [ -z "$Symbols" ]; then
  echo "FAIL: $OBJECT defines no symbol"
  exit 1
fi
Untagged=$(printf '%s\n' "$Symbols" | grep -v 'Avx512Isa>' || true)
if [ -n "$Untagged" ]; then
  echo "FAIL: symbols without the Avx512Isa tag:"
  printf '%s\n' "$Untagged"
  exit 1
fi
Disassembly=$("$OBJDUMP" -d "$OBJECT")
Fused=$(printf '%s\n' "$Disassembly" | grep -cE 'vf(n)?m(add|sub)' || true)
if [ "$Fused" -ne 0 ]; then
  echo "FAIL: $Fused fused multiply-add instructions"
  exit 1
fi
Wide=$(printf '%s\n' "$Disassembly" | grep -c 'zmm' || true)
if [ "$Wide" -eq 0 ]; then
  echo "FAIL: no 512-bit instruction"
  exit 1
fi
echo "ok: $(printf '%s\n' "$Symbols" | wc -l) tagged symbols, no FMA, $Wide zmm instructions"
