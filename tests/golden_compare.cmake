# Byte-compares one smartinf_bench scenario's text output with a golden
# file. Invoked by ctest (see CMakeLists.txt) as
#   cmake -DBENCH=<smartinf_bench> -DSCENARIO=<name> -DGOLDEN=<file>
#         -DOUT=<scratch file> -P golden_compare.cmake
execute_process(
    COMMAND ${BENCH} --scenario ${SCENARIO} --jobs 1 --no-cache --quiet
    OUTPUT_FILE ${OUT}
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "smartinf_bench --scenario ${SCENARIO}: ${status}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${SCENARIO} output ${OUT} differs from ${GOLDEN}")
endif()
