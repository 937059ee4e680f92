# Byte-compares one smartinf_bench scenario's untraced text output with a
# reference: the golden file -DGOLDEN=<file>, or with -DTRACED=<file> the
# output of a traced run of the same scenario, written to that file first.
# Invoked by ctest (see CMakeLists.txt) as
#   cmake -DBENCH=<smartinf_bench> -DSCENARIO=<name> -DGOLDEN=<file>
#         -DOUT=<scratch file> -P golden_compare.cmake
if(DEFINED TRACED)
    execute_process(
        COMMAND ${BENCH} --scenario ${SCENARIO} --trace /dev/null --quiet
                --out ${TRACED}
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "traced smartinf_bench --scenario ${SCENARIO}: ${status}")
    endif()
    set(GOLDEN ${TRACED})
endif()
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
