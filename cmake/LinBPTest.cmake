# linbp_add_test(<name> SOURCES <file...> [DEPS <target...>] [ARGS <arg...>])
#
# Builds one gtest binary per test source, links it against the shared
# test main (linbp_gtest_main) plus the requested library targets, and
# registers it with CTest under its target name, run with ARGS (such as
# a --gtest_filter).
function(linbp_add_test name)
  cmake_parse_arguments(ARG "" "" "SOURCES;DEPS;ARGS" ${ARGN})
  if(NOT ARG_SOURCES)
    message(FATAL_ERROR "linbp_add_test(${name}): SOURCES is required")
  endif()
  add_executable(${name} ${ARG_SOURCES})
  target_link_libraries(${name} PRIVATE linbp_gtest_main ${ARG_DEPS})
  add_test(NAME ${name} COMMAND ${name} ${ARG_ARGS})
  set_tests_properties(${name} PROPERTIES TIMEOUT 300)
endfunction()
