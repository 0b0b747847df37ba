# cmake -DBIN=<bench> -DARGS=<a;b> -DOUT=<json> -DLEDGER=<json> -P
# check_ledger.cmake: runs BIN ARGS --json OUT; OUT must equal LEDGER.
get_filename_component(name ${BIN} NAME)
execute_process(COMMAND ${BIN} ${ARGS} --json ${OUT}
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${name} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${LEDGER}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${LEDGER}: re-record the ledger "
                      "with ${name} and explain every moved value")
endif()
