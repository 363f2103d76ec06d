# Serving-export pipeline: three serve runs (plain, an injected fault
# under restart, leaky tenants under taint) export a Chrome trace, the
# latency CSV and the flight-recorder journal, and each export is checked
# by the one tool that owns it:
#   validate_trace.py  the trace (lane order, per-id flow matching) and
#                      its journal/trace instant pairing;
#   vcfr trace-report  the CSV and the journal (typed reads, request
#                      conservation, journal-vs-CSV leak attribution).
# Then same-seed determinism, the closed-loop and fault-recovery runs,
# the SLO exit status, and serve's --slice honoured at any value.

# step(<want exit status> <command>...): run in WORK_DIR, fail on any
# other status.
function(step want)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR "${ARGN}\nexited ${rc}, want ${want}\n${out}${err}")
  endif()
endfunction()

# expect_kind(<journal> <kind>): the journal holds an entry of that kind.
function(expect_kind journal kind)
  file(READ ${WORK_DIR}/${journal} text)
  string(FIND "${text}" "\"kind\": \"${kind}\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${journal} has no ${kind} entry")
  endif()
endfunction()

file(MAKE_DIRECTORY ${WORK_DIR})
set(VALIDATE ${PYTHON} ${TOOLS_DIR}/validate_trace.py)

step(0 ${VCFR_BIN} serve --tenants 8 --cores 4 --seed 7 --duration 100000
     --trace-out serve_trace.json --latency-out serve_lat.csv
     --journal-out serve_journal.jsonl)
step(0 ${VALIDATE} serve_trace.json)
step(0 ${VCFR_BIN} trace-report serve_lat.csv --journal serve_journal.jsonl
     --top 5)

# Flows must still all terminate and the components still tile the
# latency under a fault with restart; the journal's restart entries must
# match the trace's instants.
step(0 ${VCFR_BIN} serve --tenants 4 --cores 2 --seed 7 --duration 100000
     --interarrival 5000 --inject 2:code_byte:50:3 --restart on-fault
     --trace-out inj_trace.json --latency-out inj_lat.csv
     --journal-out inj_journal.jsonl)
step(0 ${VALIDATE} inj_trace.json --journal inj_journal.jsonl)
expect_kind(inj_journal.jsonl restart)
step(0 ${VCFR_BIN} trace-report inj_lat.csv --journal inj_journal.jsonl)

# Leak observability: leak and rerand_epoch instants against the journal,
# then the offline forensics (journal vs CSV attribution).
step(0 ${VCFR_BIN} serve --tenants 4 --cores 2 --seed 7 --duration 120000
     --workloads leaky,server --taint --rerand-on-leak
     --trace-out leak_trace.json --latency-out leak_lat.csv
     --journal-out leak_journal.jsonl)
step(0 ${VALIDATE} leak_trace.json --journal leak_journal.jsonl)
expect_kind(leak_journal.jsonl leak)
step(0 ${VCFR_BIN} trace-report leak_lat.csv --journal leak_journal.jsonl)

# The same seed twice is byte-identical, JSON report and latency CSV
# both; the report parses.
foreach(run a b)
  execute_process(COMMAND ${VCFR_BIN} serve --tenants 8 --cores 4 --seed 7
                  --duration 100000 --json --latency-out lat_${run}.csv
                  WORKING_DIRECTORY ${WORK_DIR}
                  OUTPUT_FILE ${WORK_DIR}/serve_${run}.json RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serve run ${run} exited ${rc}")
  endif()
endforeach()
step(0 ${CMAKE_COMMAND} -E compare_files serve_a.json serve_b.json)
step(0 ${CMAKE_COMMAND} -E compare_files lat_a.csv lat_b.csv)
step(0 ${PYTHON} -m json.tool serve_a.json)

# Closed-loop mixed tenants; and recovery: an injected fault under
# --restart on-fault must not take the tenant down (exit 0).
step(0 ${VCFR_BIN} serve --tenants 8 --cores 4 --seed 9 --arrival closed
     --dist uniform --scale 0 --workloads server,bzip2,server,mcf)
step(0 ${VCFR_BIN} serve --tenants 4 --cores 2 --seed 7
     --inject 2:code_byte:50 --restart on-fault --json)

# A violated SLO objective exits 2.
step(2 ${VCFR_BIN} serve --tenants 4 --cores 2 --seed 7 --duration 100000
     --slo p99:1)

# An explicit --slice equal to the global default (50000) is still the
# value serve runs with, not serve's own default (2000).
set(mix serve --tenants 4 --cores 2 --seed 9 --duration 100000
    --arrival closed --scale 0 --workloads server,bzip2 --json)
execute_process(COMMAND ${VCFR_BIN} ${mix} OUTPUT_VARIABLE default_json
                RESULT_VARIABLE rc1)
execute_process(COMMAND ${VCFR_BIN} ${mix} --slice 50000
                OUTPUT_VARIABLE slice_json RESULT_VARIABLE rc2)
if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0)
  message(FATAL_ERROR "serve --slice runs failed: ${rc1} ${rc2}")
endif()
if(default_json STREQUAL slice_json)
  message(FATAL_ERROR "serve --slice 50000 ran as the default slice")
endif()
