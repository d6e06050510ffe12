# Runs the confidence front ends (the Figure 2 bench, the gating,
# recovery and value-predictor extension benches and the
# confidence_estimation example) and compares their stdout byte for
# byte with the recorded outputs under tests/golden/, then checks that
# the example rejects a bad benchmark or history length with exit 1.
#
#   cmake -DFIGURE2=<path to bench_fig2_confidence>
#         -DGATING=<path to bench_ext_gating>
#         -DRECOVERY=<path to bench_ext_recovery>
#         -DVALUE_PREDICTORS=<path to bench_ext_value_predictors>
#         -DCONFIDENCE_ESTIMATION=<path to confidence_estimation>
#         -DGOLDEN_DIR=<tests/golden> -DOUT_DIR=<output dir>
#         -P confidence_golden.cmake

include("${CMAKE_CURRENT_LIST_DIR}/golden.cmake")

function(expect_usage_error what)
    execute_process(COMMAND "${CONFIDENCE_ESTIMATION}" ${ARGN}
                    OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 1)
        message(SEND_ERROR
                "confidence_estimation with ${what}: exit ${rc}, expected 1")
    endif()
endfunction()

expect_golden(bench_fig2_confidence_20000.txt "${FIGURE2}" 20000)
expect_golden(bench_ext_gating_20000.txt "${GATING}" 20000)
expect_golden(bench_ext_recovery_20000.txt "${RECOVERY}" 20000)
expect_golden(bench_ext_value_predictors_20000.txt "${VALUE_PREDICTORS}"
              20000)
expect_golden(confidence_estimation_gcc.txt "${CONFIDENCE_ESTIMATION}")

expect_usage_error("an unknown benchmark" nosuch)
expect_usage_error("history 0" gcc 0)
expect_usage_error("history 25" gcc 25)
expect_usage_error("history 30" gcc 30)
expect_usage_error("a non-numeric history" gcc 8x)
