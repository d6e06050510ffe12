# Runs the fsm2vhdl example and compares its stdout byte for byte with
# the recorded outputs under tests/golden/, then checks that malformed
# invocations exit 1.
#
#   cmake -DFSM2VHDL=<path to fsm2vhdl> -DGOLDEN_DIR=<tests/golden>
#         -DOUT_DIR=<output dir> -P fsm2vhdl_golden.cmake

include("${CMAKE_CURRENT_LIST_DIR}/golden.cmake")

function(expect_exit_1 what rc)
    if(NOT rc EQUAL 1)
        message(SEND_ERROR "fsm2vhdl with ${what}: exit ${rc}, expected 1")
    endif()
endfunction()

function(expect_usage_error what)
    execute_process(COMMAND "${FSM2VHDL}" ${ARGN}
                    OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
    expect_exit_1("${what}" "${rc}")
endfunction()

expect_golden(fsm2vhdl_vhdl.txt "${FSM2VHDL}" 0x1x 01xx)
expect_golden(fsm2vhdl_verilog.txt "${FSM2VHDL}" --verilog 0x1x 01xx)
# Four patterns minimize to four cubes: nested alternation braces.
expect_golden(fsm2vhdl_nested.txt "${FSM2VHDL}" 1xx0 x1x1 xx11 0000)

expect_usage_error("no arguments")
expect_usage_error("mismatched lengths" 01 011)
expect_usage_error("a bad character" 0123)
# Spelled out: list expansion through ${ARGN} would drop the "".
execute_process(COMMAND "${FSM2VHDL}" ""
                OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
expect_exit_1("an empty pattern" "${rc}")
