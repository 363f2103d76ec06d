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

# A naive-ILR image round-trips through a file: randomize --naive saves
# it, disasm lists its six instructions in ascending randomized address,
# and running the saved image prints what the original image prints.
execute_process(COMMAND ${VCFR_BIN} randomize ${WORK_DIR}/smoke.vxe --seed 7
                --naive -o ${WORK_DIR}/smoke.naive.vxe RESULT_VARIABLE rc_nv)
execute_process(COMMAND ${VCFR_BIN} disasm ${WORK_DIR}/smoke.naive.vxe
                OUTPUT_VARIABLE naive_listing RESULT_VARIABLE rc_nd)
execute_process(COMMAND ${VCFR_BIN} run ${WORK_DIR}/smoke.naive.vxe
                OUTPUT_VARIABLE naive_out RESULT_VARIABLE rc_nr)
execute_process(COMMAND ${VCFR_BIN} run ${WORK_DIR}/smoke.vxe
                OUTPUT_VARIABLE original_out RESULT_VARIABLE rc_or)
if(NOT rc_nv EQUAL 0 OR NOT rc_nd EQUAL 0 OR NOT rc_nr EQUAL 0 OR
   NOT rc_or EQUAL 0)
  message(FATAL_ERROR "naive pipeline failed: ${rc_nv} ${rc_nd} ${rc_nr} "
                      "${rc_or}")
endif()
string(REGEX MATCHALL "\n[0-9a-f]+:" naive_addrs "${naive_listing}")
list(LENGTH naive_addrs naive_count)
set(sorted_addrs ${naive_addrs})
list(SORT sorted_addrs)
if(NOT naive_count EQUAL 6 OR NOT naive_addrs STREQUAL sorted_addrs)
  message(FATAL_ERROR "naive disasm not 6 ascending lines: ${naive_listing}")
endif()
if(NOT naive_out STREQUAL original_out)
  message(FATAL_ERROR "naive image ran to '${naive_out}', the original to "
                      "'${original_out}'")
endif()

# A truncated image (the magic and nothing else) is refused with one
# typed VXE error and exit status 1, not a crash.
file(WRITE "${WORK_DIR}/truncated.vxe" "VXE4")
execute_process(COMMAND ${VCFR_BIN} stats ${WORK_DIR}/truncated.vxe
                OUTPUT_VARIABLE trunc_out ERROR_VARIABLE trunc_err
                RESULT_VARIABLE rc_trunc)
string(FIND "${trunc_err}" "vxe: truncated" found_vxe)
if(NOT rc_trunc EQUAL 1 OR found_vxe EQUAL -1)
  message(FATAL_ERROR "stats on a truncated image: exit ${rc_trunc}, "
                      "stderr: ${trunc_err}")
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

# The checks below run each command in WORK_DIR and fail on a non-zero
# exit; `run` sends stdout to a file there, `same` byte-compares two
# files, and `json` parses one with Python's json.tool.
function(run out_file)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  OUTPUT_FILE ${WORK_DIR}/${out_file}
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN}\nexited ${rc}\n${err}")
  endif()
endfunction()
function(same a b)
  run(cmp.out ${CMAKE_COMMAND} -E compare_files ${a} ${b})
endfunction()
function(json file)
  run(json.out ${PYTHON} -m json.tool ${file})
endfunction()

# Telemetry exports: the stat registry and Chrome trace parse as JSON and
# the sampler's CSV starts with its header.
run(fleet_tel.json ${VCFR_BIN} fleet --procs 4 --cores 2 --slice 2000
    --scale 0 --seed 7 --json
    --stats-json stats.json --trace-out trace.json
    --sample-interval 5000 --sample-out samples.csv)
json(stats.json)
json(trace.json)
file(STRINGS ${WORK_DIR}/samples.csv samples_header LIMIT_COUNT 1)
if(NOT samples_header MATCHES "^cycle,")
  message(FATAL_ERROR "samples.csv header is not cycle,...: ${samples_header}")
endif()

# Profiler: same-seed profiles are byte-identical (flamegraph and report
# included) and the JSON exports parse; then the native-vs-VCFR
# comparison on the original image and the fleet's per-tenant profiles.
run(workload.out ${VCFR_BIN} workload gcc --scale 0 -o gcc0.vxe)
run(randomize.out ${VCFR_BIN} randomize gcc0.vxe -o gcc0v.vxe --seed 7)
run(report_a.txt ${VCFR_BIN} prof gcc0v.vxe --profile-out prof_a.json
    --flame-out flame_a.txt)
run(report_b.txt ${VCFR_BIN} prof gcc0v.vxe --profile-out prof_b.json
    --flame-out flame_b.txt)
same(prof_a.json prof_b.json)
same(flame_a.txt flame_b.txt)
same(report_a.txt report_b.txt)
json(prof_a.json)
run(prof_cmp.out ${VCFR_BIN} prof gcc0.vxe --seed 7 --profile-out cmp.json)
json(cmp.json)
run(fleet_prof.out ${VCFR_BIN} fleet --procs 2 --cores 2 --slice 2000
    --scale 0 --seed 7 --profile-out fleetprof.json)
json(fleetprof.pid0.json)
json(fleetprof.pid1.json)
