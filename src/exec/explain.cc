#include "exec/explain.h"

#include "common/str_util.h"

namespace eca {

std::string ExplainAnalyze(const Plan& plan, const ExecStats& stats) {
  // Plan::ToString() prints one line per node in preorder, indented two
  // spaces per level — the order and depth the profile records.
  const std::string tree = plan.ToString();
  std::string out;
  size_t node = 0;
  for (size_t begin = 0; begin < tree.size(); ++node) {
    size_t end = tree.find('\n', begin);
    const std::string line = tree.substr(begin, end - begin);
    begin = end + 1;
    const int depth =
        static_cast<int>(line.find_first_not_of(' ') / 2);
    const NodeProfile* p =
        node < stats.profile.size() && stats.profile[node].depth == depth
            ? &stats.profile[node]
            : nullptr;
    if (p == nullptr) {
      out += StrFormat("%-40s (not run)\n", line.c_str());
    } else if (p->fused) {
      out += StrFormat("%-40s fused         %8.3f ms\n", line.c_str(),
                       p->own_ms);
    } else {
      out += StrFormat("%-40s rows=%-8lld %8.3f ms\n", line.c_str(),
                       static_cast<long long>(p->rows), p->own_ms);
    }
  }
  return out;
}

}  // namespace eca
