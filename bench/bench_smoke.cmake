# bench_smoke: runs every bench on a tiny input, then checks that each bad
# flag value exits 2 with a message and before printing anything.
#
#   cmake -DBENCH_DIR=<dir> -DBENCHES=<name,name,...> -P bench_smoke.cmake

string(REPLACE "," ";" benches "${BENCHES}")
foreach(bench IN LISTS benches)
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" --scale=0.01 --pairs=20 --datasets=DO,DB
            --threads=2 --budget=1
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "\ncsv,DB,")
    message(FATAL_ERROR "${bench} exited ${rc}:\n${out}\n${err}")
  endif()
endforeach()

set(bad_flags
    --datasets=D0 --datasets=DO, --dataset=nosuch --scale=junk --scale=-1
    --scale=0 --scale=inf --pairs=abc --pairs=0 --pairs=-5 --pairs=20x
    --pairs=99999999999999999999999 --threads=0 --budget=0 --batch_size=1.5
    --data_dir= --bogus)
foreach(flag IN LISTS bad_flags)
  execute_process(
    COMMAND "${BENCH_DIR}/bench_fig9_labeling_size" --scale=0.01 ${flag}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR err STREQUAL "" OR NOT out STREQUAL "")
    message(FATAL_ERROR "${flag}: expected exit 2 with a message and no "
                        "output, got ${rc}:\n${out}\n${err}")
  endif()
endforeach()
message(STATUS "bench smoke: OK")
