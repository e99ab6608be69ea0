# Build file of the benchmark program, injected into the repository's own
# CMake project so the libraries and the benchmark are compiled exactly as
# the repository compiles them:
#
#   cmake -S . -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo \
#         -DBUILD_TESTING=OFF -DCMAKE_PROJECT_INCLUDE=$PWD/perfbench/build.cmake
#   cmake --build .bench_build/perfbench --target choir_perfbench
#
# project() includes this file; the target is defined once the top-level
# CMakeLists.txt has finished, so it inherits the same compile options and
# definitions as every library. perfbench/run.py runs both steps.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_target)
  add_executable(choir_perfbench
    ${PERFBENCH_DIR}/main.cpp
    ${PERFBENCH_DIR}/common.cpp
    ${PERFBENCH_DIR}/wl_gateway.cpp
    ${PERFBENCH_DIR}/wl_net_udp.cpp
    ${PERFBENCH_DIR}/wl_city.cpp)
  string(TOUPPER "${CMAKE_BUILD_TYPE}" build_type_upper)
  target_compile_definitions(choir_perfbench PRIVATE
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    PERFBENCH_CXX_FLAGS="${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${build_type_upper}}"
    PERFBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}")
  target_link_libraries(choir_perfbench PRIVATE
    choir_gateway choir_citysim choir_net choir_rt choir_core choir_channel
    choir_lora choir_coding choir_dsp choir_obs choir_util Threads::Threads)
  set_target_properties(choir_perfbench PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench)
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL perfbench_add_target)
