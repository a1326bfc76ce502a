# Runs a program that must refuse its arguments:
#
#   cmake -DPROGRAM=<exe> -DARGS="<space-separated args>" -DSTATUS=<code>
#         -DMESSAGE=<regex> -P expect_exit.cmake
#
# Fails unless the program exits with STATUS and its stderr matches
# MESSAGE. (A ctest PASS_REGULAR_EXPRESSION alone ignores the exit
# status, so a program that printed the message and then ran anyway
# would pass it.)
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                OUTPUT_QUIET
                ERROR_VARIABLE stderr
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL STATUS)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${exit_code}, "
                      "expected ${STATUS}; stderr: ${stderr}")
endif()
if(NOT stderr MATCHES "${MESSAGE}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: stderr does not match "
                      "\"${MESSAGE}\": ${stderr}")
endif()
