# End-to-end CLI smoke: asm -> stats -> randomize -> run --enforce-tags.
file(WRITE "${WORK_DIR}/smoke.vx" "
.entry main
.func main
main:
  mov r1, 6
  call square
  out r1
  halt
.func square
square:
  mul r1, r1
  ret
")
execute_process(COMMAND ${VCFR_BIN} asm ${WORK_DIR}/smoke.vx -o ${WORK_DIR}/smoke.vxe
                RESULT_VARIABLE rc1)
execute_process(COMMAND ${VCFR_BIN} stats ${WORK_DIR}/smoke.vxe RESULT_VARIABLE rc2)
execute_process(COMMAND ${VCFR_BIN} randomize ${WORK_DIR}/smoke.vxe --seed 7
                -o ${WORK_DIR}/smoke.vcfr.vxe RESULT_VARIABLE rc3)
execute_process(COMMAND ${VCFR_BIN} run ${WORK_DIR}/smoke.vcfr.vxe --enforce-tags
                OUTPUT_VARIABLE out RESULT_VARIABLE rc4)
if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0 OR NOT rc3 EQUAL 0 OR NOT rc4 EQUAL 0)
  message(FATAL_ERROR "CLI pipeline failed: ${rc1} ${rc2} ${rc3} ${rc4}")
endif()
string(FIND "${out}" "out: 36" found)
if(found EQUAL -1)
  message(FATAL_ERROR "expected output 36, got: ${out}")
endif()

# Fleet smoke: four workloads time-sliced on two cores, architectural
# results verified against isolated runs (the command exits non-zero on
# any mismatch or fault).
execute_process(COMMAND ${VCFR_BIN} fleet --procs 4 --cores 2 --slice 2000
                --scale 0 --seed 7
                OUTPUT_VARIABLE fleet_out RESULT_VARIABLE rc5)
if(NOT rc5 EQUAL 0)
  message(FATAL_ERROR "fleet smoke failed (${rc5}): ${fleet_out}")
endif()
string(FIND "${fleet_out}" "\"context_switches\"" found_cs)
if(found_cs EQUAL -1)
  message(FATAL_ERROR "fleet report missing context_switches: ${fleet_out}")
endif()
string(FIND "${fleet_out}" "\"arch_match\": false" found_mismatch)
if(NOT found_mismatch EQUAL -1)
  message(FATAL_ERROR "fleet run diverged from isolated runs: ${fleet_out}")
endif()

# faultcamp honours an explicit --max-instr at any value, the global
# default's included (an absent flag means the campaign's 2M budget).
execute_process(COMMAND ${VCFR_BIN} faultcamp --workloads bzip2 --scale 0
                --trials 0 --layouts native --sites payload
                --max-instr 100000000 --json
                OUTPUT_VARIABLE camp_out RESULT_VARIABLE rc6)
if(NOT rc6 EQUAL 0)
  message(FATAL_ERROR "faultcamp smoke failed (${rc6}): ${camp_out}")
endif()
string(FIND "${camp_out}" "\"max_instructions\": 100000000}" found_budget)
if(found_budget EQUAL -1)
  message(FATAL_ERROR "faultcamp ignored --max-instr 100000000: ${camp_out}")
endif()

# trace honours an explicit --max-instr at any value, the global default's
# included (an absent flag means 64 steps): a 303-step loop runs to its
# halt only when the flag is obeyed.
file(WRITE "${WORK_DIR}/loop.vx" "
.entry main
.func main
main:
  mov r1, 100
loop:
  sub r1, 1
  cmp r1, 0
  jgt loop
  out r1
  halt
")
execute_process(COMMAND ${VCFR_BIN} asm ${WORK_DIR}/loop.vx -o ${WORK_DIR}/loop.vxe
                RESULT_VARIABLE rc7)
execute_process(COMMAND ${VCFR_BIN} trace ${WORK_DIR}/loop.vxe
                --max-instr 100000000
                OUTPUT_VARIABLE trace_out RESULT_VARIABLE rc8)
if(NOT rc7 EQUAL 0 OR NOT rc8 EQUAL 0)
  message(FATAL_ERROR "trace smoke failed: ${rc7} ${rc8}")
endif()
string(FIND "${trace_out}" "== halted" found_halt)
if(found_halt EQUAL -1)
  message(FATAL_ERROR "trace ignored --max-instr 100000000: ${trace_out}")
endif()
