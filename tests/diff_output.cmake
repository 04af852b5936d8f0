# Runs BIN and requires its standard output to equal the file EXPECTED,
# byte for byte. The output is written to ACTUAL, and a mismatch prints
# a unified diff.
#
#   cmake -DBIN=<exe> -DEXPECTED=<file> -DACTUAL=<file> -P diff_output.cmake
#
# To refresh a checked-in output after an intended change, run BIN with
# the test's environment and redirect it into EXPECTED.
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(WRITE ${ACTUAL} "${actual}")
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  execute_process(COMMAND diff -u ${EXPECTED} ${ACTUAL})
  message(FATAL_ERROR "output of ${BIN} differs from ${EXPECTED}")
endif()
