// Strict command lines for the benches that write a BENCH_*.json.
//
// Each takes --name=value flags plus at most one positional argument, the
// output path, and rejects anything else before doing any work: --help
// prints the usage and exits 0 without writing a file; an unknown flag,
// a number that is not a positive integer in range, an empty value, or a
// second positional argument prints the usage and exits 2.

#ifndef BENCH_BENCH_CLI_H_
#define BENCH_BENCH_CLI_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace bolted::bench {

class Cli {
 public:
  Cli(const char* usage, const char* default_output)
      : usage_(usage), output_(default_output) {}

  // --name=N, a positive integer that fits Int.
  template <typename Int>
  Cli& Number(std::string_view name, Int* value) {
    return Add(name, /*takes_value=*/true, [value](std::string_view text) {
      uint64_t parsed = 0;
      const char* end = text.data() + text.size();
      const auto [stop, error] = std::from_chars(text.data(), end, parsed);
      if (error != std::errc() || stop != end || parsed == 0 ||
          parsed > static_cast<uint64_t>(std::numeric_limits<Int>::max())) {
        return false;
      }
      *value = static_cast<Int>(parsed);
      return true;
    });
  }

  // --name=TEXT, non-empty.  *value points into argv.
  Cli& Text(std::string_view name, const char** value) {
    return Add(name, /*takes_value=*/true, [value](std::string_view text) {
      *value = text.data();  // the tail of an argv string: NUL-terminated
      return !text.empty();
    });
  }

  // --name, a switch without a value.
  Cli& Switch(std::string_view name, bool* value) {
    return Add(name, /*takes_value=*/false, [value](std::string_view) {
      *value = true;
      return true;
    });
  }

  // Applies argv to the registered flags and returns the output path: the
  // positional argument if one was given, else the default.
  const char* Parse(int argc, char** argv) const {
    const char* output = nullptr;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::printf("%s\n", usage_);
        std::exit(0);
      }
      if (!arg.starts_with('-')) {
        if (output != nullptr || arg.empty()) {
          Fail(argv[0], "expected at most one non-empty output path", arg);
        }
        output = argv[i];
        continue;
      }
      const size_t eq = arg.find('=');
      const bool has_value = eq != std::string_view::npos;
      const Flag* flag = Find(arg.substr(0, eq));
      if (flag == nullptr) {
        Fail(argv[0], "unknown flag", arg);
      }
      if (flag->takes_value != has_value ||
          !flag->apply(has_value ? arg.substr(eq + 1) : std::string_view())) {
        Fail(argv[0], "bad value", arg);
      }
    }
    return output != nullptr ? output : output_;
  }

 private:
  struct Flag {
    std::string_view name;
    bool takes_value;
    std::function<bool(std::string_view)> apply;
  };

  Cli& Add(std::string_view name, bool takes_value,
           std::function<bool(std::string_view)> apply) {
    flags_.push_back(Flag{name, takes_value, std::move(apply)});
    return *this;
  }

  const Flag* Find(std::string_view name) const {
    for (const Flag& flag : flags_) {
      if (flag.name == name) {
        return &flag;
      }
    }
    return nullptr;
  }

  [[noreturn]] void Fail(const char* program, const char* what,
                         std::string_view arg) const {
    std::fprintf(stderr, "%s: %s: '%.*s'\n%s\n", program, what,
                 static_cast<int>(arg.size()), arg.data(), usage_);
    std::exit(2);
  }

  const char* usage_;
  const char* output_;
  std::vector<Flag> flags_;
};

}  // namespace bolted::bench

#endif  // BENCH_BENCH_CLI_H_
