# Regenerates every BENCH_*.json snapshot into OUT_DIR and byte-compares
# each against the committed copy in REF_DIR; the two sets of names must
# match too.
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(COMMAND ${SNAPSHOT_BIN} ${OUT_DIR} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "snapshot exited with ${rc}")
endif()

file(GLOB written RELATIVE "${OUT_DIR}" "${OUT_DIR}/BENCH_*.json")
file(GLOB committed RELATIVE "${REF_DIR}" "${REF_DIR}/BENCH_*.json")
list(SORT written)
list(SORT committed)
if(NOT written STREQUAL committed)
  message(FATAL_ERROR "snapshot wrote [${written}], committed [${committed}]")
endif()
set(differ "")
foreach(f ${committed})
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  "${REF_DIR}/${f}" "${OUT_DIR}/${f}" RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    list(APPEND differ ${f})
  endif()
endforeach()
if(differ)
  message(FATAL_ERROR "differ from the committed copies in ${REF_DIR}: "
                      "${differ} (fresh copies in ${OUT_DIR})")
endif()
