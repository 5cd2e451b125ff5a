# Runs a command and passes only if it exits with exactly EXPECT_EXIT.
#
#   cmake -DEXPECT_EXIT=1 -P expect_exit.cmake -- <program> [args...]
#
# ctest's WILL_FAIL accepts any non-zero exit, so a tool that crashed or hit
# a usage error would read as "failed as intended". The negative self-tests
# pin the documented code instead.
if(NOT DEFINED EXPECT_EXIT)
  message(FATAL_ERROR "expect_exit.cmake: -DEXPECT_EXIT=<code> is required")
endif()

set(_cmd)
set(_after_separator FALSE)
math(EXPR _last "${CMAKE_ARGC} - 1")
foreach(_i RANGE ${_last})
  if(_after_separator)
    list(APPEND _cmd "${CMAKE_ARGV${_i}}")
  elseif(CMAKE_ARGV${_i} STREQUAL "--")
    set(_after_separator TRUE)
  endif()
endforeach()
if(NOT _cmd)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

execute_process(COMMAND ${_cmd} RESULT_VARIABLE _rc)
if(NOT _rc STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got '${_rc}'")
endif()
