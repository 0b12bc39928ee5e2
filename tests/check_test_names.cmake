# Fails when a discovered ctest name contains "byte object": gtest spells a
# parameter it cannot print as its raw bytes, padding included, so such a
# name changes from build to build. Names matching the PADDING_FREE regex
# are let through: their suite's parameter static_asserts that it holds no
# padding, so its bytes are the field values alone.
#
#   cmake -D CTEST=<ctest> -D BUILD_DIR=<build dir> [-D PADDING_FREE=<regex>]
#         -P check_test_names.cmake
execute_process(
  COMMAND ${CTEST} -N
  WORKING_DIRECTORY ${BUILD_DIR}
  OUTPUT_VARIABLE listing
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT listing MATCHES "Total Tests: [1-9]")
  message(FATAL_ERROR "ctest -N found no tests in ${BUILD_DIR}:\n${listing}")
endif()
string(REGEX MATCHALL "Test +#[0-9]+: [^\n]*byte object[^\n]*" unstable
       "${listing}")
if(PADDING_FREE)
  list(FILTER unstable EXCLUDE REGEX "${PADDING_FREE}")
endif()
if(unstable)
  list(LENGTH unstable count)
  list(JOIN unstable "\n" lines)
  message(FATAL_ERROR "${count} test names hold raw parameter bytes; give "
                      "their INSTANTIATE_TEST_SUITE_P a name generator:\n"
                      "${lines}")
endif()
