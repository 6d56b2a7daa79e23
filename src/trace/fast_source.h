// OpenTraceSource, the one way to open a trace file or pipe, is declared
// with its reader in src/trace/trace_file.h; this header forwards there.
#ifndef FLASHSIM_SRC_TRACE_FAST_SOURCE_H_
#define FLASHSIM_SRC_TRACE_FAST_SOURCE_H_

#include "src/trace/trace_file.h"

#endif  // FLASHSIM_SRC_TRACE_FAST_SOURCE_H_
