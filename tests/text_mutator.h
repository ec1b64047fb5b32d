// Seeded text mutator for the parser robustness tests.
//
// There is no coverage-guided fuzzer in this toolchain, so each parser test
// replays a fixed, seeded stream of mutants of known-good inputs: byte
// overwrites, deletions, duplicated spans, truncations and spliced-in
// tokens that sit on the parser's edge cases (signs, exponents, non-finite
// words, separators). The same seed always yields the same mutants.

#ifndef TESTS_TEXT_MUTATOR_H_
#define TESTS_TEXT_MUTATOR_H_

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace spotcheck {

class TextMutator {
 public:
  TextMutator(uint64_t seed, std::vector<std::string> tokens)
      : rng_(seed), tokens_(std::move(tokens)) {}

  // Applies one to four random edits to `text`.
  std::string Mutate(std::string text) {
    const int edits = 1 + static_cast<int>(Below(4));
    for (int i = 0; i < edits; ++i) {
      const size_t at = Below(text.size() + 1);
      switch (Below(6)) {
        case 0:  // overwrite one byte with any byte
          if (at < text.size()) {
            text[at] = static_cast<char>(Below(256));
          }
          break;
        case 1:  // overwrite one byte with a digit or separator
          if (at < text.size()) {
            text[at] = kAlphabet[Below(sizeof(kAlphabet) - 1)];
          }
          break;
        case 2:  // delete one byte
          if (at < text.size()) {
            text.erase(at, 1);
          }
          break;
        case 3:  // splice in a token
          text.insert(at, tokens_[Below(tokens_.size())]);
          break;
        case 4:  // duplicate a span
          text.insert(at, text.substr(Below(text.size() + 1), Below(16)));
          break;
        default:  // truncate
          text.resize(at);
          break;
      }
    }
    return text;
  }

 private:
  static constexpr char kAlphabet[] = "0123456789.,:=+-eE \n";

  size_t Below(size_t n) { return n == 0 ? 0 : static_cast<size_t>(rng_() % n); }

  std::mt19937_64 rng_;
  std::vector<std::string> tokens_;
};

}  // namespace spotcheck

#endif  // TESTS_TEXT_MUTATOR_H_
