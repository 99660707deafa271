#!/bin/sh
# Checks the AVX-512 lane-kernel object (src/pic/LaneKernelsAvx512.cpp):
#   * it defines no external symbol without the Avx512Isa tag, so the
#     linker can never pick an AVX-512 copy of a shared inline function
#     for baseline callers;
#   * it holds no fused multiply-add, which would change bits;
#   * it holds 512-bit instructions, so the lanes really are vectorized;
#   * it calls nothing but libm's sin, cos and sincos (the dipole's
#     scalar lane calls): every lane helper is inlined into its kernel,
#     so no block passes its lanes through memory between calls.
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
# Call targets: the symbol of each call's or tail jump's relocation, or
# the operand of a call with none (a local or indirect call).
Targets=$("$OBJDUMP" -dr "$OBJECT" | awk '
  function flush() { if (Pending != "") print Pending; Pending = "" }
  /R_X86_64_/ {
    if (Pending != "" || $0 ~ /PLT32/) {
      Target = $NF
      sub(/[-+]0x[0-9a-f]+$/, "", Target)
      print Target
    }
    Pending = ""
    next
  }
  { flush() }
  /\tcall/ { Pending = $0; sub(/.*\tcall[a-z]*[ \t]+/, "", Pending) }
  END { flush() }')
Stray=$(printf '%s\n' "$Targets" | grep -vxE '(sin|cos|sincos)?' || true)
if [ -n "$Stray" ]; then
  echo "FAIL: calls other than libm sin/cos/sincos:"
  printf '%s\n' "$Stray" | sort | uniq -c
  exit 1
fi
Calls=$(printf '%s\n' "$Targets" | grep -c . || true)
echo "ok: $(printf '%s\n' "$Symbols" | wc -l) tagged symbols, no FMA, $Wide zmm instructions, $Calls libm calls"
