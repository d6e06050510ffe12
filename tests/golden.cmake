# Shared by the *_golden.cmake scripts: run a program and compare its
# stdout byte for byte with a recorded output under GOLDEN_DIR. On a
# mismatch the actual output is written to OUT_DIR for inspection.
#
#   expect_golden(<golden file> <program> [args...])

function(expect_golden golden program)
    list(JOIN ARGN " " args)
    execute_process(COMMAND "${program}" ${ARGN}
                    OUTPUT_VARIABLE got RESULT_VARIABLE rc)
    file(READ "${GOLDEN_DIR}/${golden}" want)
    if(NOT rc EQUAL 0)
        message(SEND_ERROR "${program} ${args}: exit ${rc}, expected 0")
    elseif(NOT "${got}" STREQUAL "${want}")
        file(WRITE "${OUT_DIR}/${golden}" "${got}")
        message(SEND_ERROR "${program} ${args}: stdout differs from "
                "${GOLDEN_DIR}/${golden}; got ${OUT_DIR}/${golden}")
    endif()
endfunction()
