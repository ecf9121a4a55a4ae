# Runs each "&&"-separated command in turn and fails at the first one
# that exits nonzero, so one ctest check can make several comparisons:
#   cmake -P steps.cmake <cmd> [args...] [&& <cmd> [args...]]...
cmake_minimum_required(VERSION 3.16)
set(cmd "")
foreach(i RANGE 3 ${CMAKE_ARGC}) # argv 0-2: cmake -P steps.cmake
  if(i EQUAL CMAKE_ARGC OR "${CMAKE_ARGV${i}}" STREQUAL "&&")
    execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      list(JOIN cmd " " shown)
      message(FATAL_ERROR "failed (rc=${rc}): ${shown}")
    endif()
    set(cmd "")
  else()
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  endif()
endforeach()
