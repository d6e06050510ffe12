# Runs the branch-side figure front ends (the Figure 5 bench and the
# extension baselines bench) and compares their stdout byte for byte
# with the recorded outputs under tests/golden/.
#
#   cmake -DFIGURE5=<path to bench_fig5_branch>
#         -DBASELINES=<path to bench_ext_baselines>
#         -DGOLDEN_DIR=<tests/golden> -DOUT_DIR=<output dir>
#         -P branch_golden.cmake

include("${CMAKE_CURRENT_LIST_DIR}/golden.cmake")

expect_golden(bench_fig5_branch_20000.txt "${FIGURE5}" 20000)
expect_golden(bench_ext_baselines_20000.txt "${BASELINES}" 20000)
