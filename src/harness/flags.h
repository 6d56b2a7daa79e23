// Registering command-line flag parser for benches and examples.
//
// Each binary registers the flags it understands (the shared bench flags
// plus its own, e.g. fig02's --ws=60) and parses argv once. Unlike the old
// ParseBenchOptions, a flag nobody registered is an error: the parser
// prints a usage line listing every registered flag and the caller exits
// non-zero, instead of silently continuing with defaults.
#ifndef FLASHSIM_SRC_HARNESS_FLAGS_H_
#define FLASHSIM_SRC_HARNESS_FLAGS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace flashsim {

// Parses a plain decimal number and accepts it only when it is finite and in
// [lo, hi], so no NaN, infinity or out-of-range value reaches a cast to an
// integer duration (undefined behaviour) or a run that fails deep inside.
bool ParseInRange(const std::string& value, double lo, double hi, double* out);

// Collects flag registrations, then parses argv. Value flags take
// --name=value; bool flags are bare switches (--csv). Registration order is
// the usage-line order. Numeric flags accept only values in [lo, hi]; any
// other value is a bad value, like a malformed one.
class FlagParser {
 public:
  void AddBool(const std::string& name, const std::string& help, bool* out);
  void AddInt(const std::string& name, const std::string& help, int* out, int lo = 0,
              int hi = std::numeric_limits<int>::max());
  void AddUint64(const std::string& name, const std::string& help, uint64_t* out,
                 uint64_t lo = 0, uint64_t hi = std::numeric_limits<uint64_t>::max());
  void AddDouble(const std::string& name, const std::string& help, double* out,
                 double lo = std::numeric_limits<double>::lowest(),
                 double hi = std::numeric_limits<double>::max());
  void AddString(const std::string& name, const std::string& help, std::string* out);
  // Escape hatch for flags with custom syntax (enums, policies). The
  // handler returns false to reject the value.
  void AddCustom(const std::string& name, const std::string& value_hint,
                 const std::string& help,
                 std::function<bool(const std::string& value)> handler);

  // Parses argv in order. On an unknown flag or a malformed value, prints
  // the offending argument and the usage line to stderr and returns false.
  bool Parse(int argc, char** argv);

  void PrintUsage(const std::string& program, std::ostream& os) const;

  // Convenience for main(): parse, exiting the process with status 2 on
  // error (the registering-parser replacement for ParseBenchOptions's
  // print-and-continue).
  void ParseOrExit(int argc, char** argv);

 private:
  struct Flag {
    std::string name;        // without leading dashes
    std::string value_hint;  // "" for bare switches
    std::string help;
    bool takes_value = false;
    std::function<bool(const std::string&)> handler;
  };

  const Flag* Find(const std::string& name) const;
  void Register(Flag flag);

  std::vector<Flag> flags_;
};

// Registers a capacity flag in paper units of `unit_bytes` each (kGiB,
// kTiB). A negative value, or one whose byte count does not fit a uint64_t,
// is refused rather than cast to a wrapped or undefined byte count.
void AddCapacityFlag(FlagParser& parser, const std::string& name, const std::string& help,
                     uint64_t unit_bytes, double* out);

}  // namespace flashsim

#endif  // FLASHSIM_SRC_HARNESS_FLAGS_H_
