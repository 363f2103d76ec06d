# Checkpoint/restore round trip through the CLI: a fleet resumed from a
# mid-run checkpoint must emit the exact bytes of the uninterrupted run,
# and writing the checkpoint must not perturb the run that writes it.

# fleet(<json out> <extra flags>...): one bounded fleet run in WORK_DIR
# whose --json report lands in <json out>; fails on a non-zero exit.
function(fleet out)
  execute_process(COMMAND ${VCFR_BIN} fleet --procs 8 --cores 4 --slice 2000
                          --scale 0 --seed 7 --max-instr 20000 --no-baseline
                          --json ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc
                  OUTPUT_FILE ${WORK_DIR}/${out} ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fleet ${ARGN} exited ${rc}: ${err}")
  endif()
endfunction()

# same(<a> <b>): the two reports are byte-identical.
function(same a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${WORK_DIR}/${a} ${WORK_DIR}/${b}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

file(MAKE_DIRECTORY ${WORK_DIR})
fleet(ckpt_base.json)
fleet(ckpt_write.json --checkpoint-out ckpt.bin --checkpoint-round 8)
fleet(ckpt_resume.json --restore ckpt.bin)
same(ckpt_base.json ckpt_write.json)
same(ckpt_base.json ckpt_resume.json)
