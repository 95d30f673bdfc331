// trace_report: offline latency attribution over a dumped trace.
//
// Reads a "# turbo-trace v1" file (what TraceRing snapshots serialize to
// via obs/trace_io.h; preemption_test writes one for its traced
// preempting run when TURBO_TRACE_OUT is set), runs the obs::passes
// pipeline over it, and prints the report: per-phase p99 attribution,
// queueing-delay breakdown, preemption cascades, cross-model reclaim
// timeline.
//
//   trace_report trace.tsv                    # summary report
//   trace_report trace.tsv --chrome out.json  # + Chrome-tracing JSON
//                                             # (chrome://tracing, perfetto)
//   trace_report trace.tsv --timeline         # + reclaim timeline detail
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "obs/passes.h"
#include "obs/trace_io.h"

using namespace turbo;

int main(int argc, char** argv) {
  const char* trace_path = nullptr;
  const char* chrome_path = nullptr;
  bool timeline = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chrome") == 0 && i + 1 < argc) {
      chrome_path = argv[++i];
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      timeline = true;
    } else if (trace_path == nullptr) {
      trace_path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (trace_path == nullptr) {
    std::fprintf(stderr,
                 "usage: trace_report <trace.tsv> [--chrome out.json] "
                 "[--timeline]\n");
    return 2;
  }

  try {
    const std::vector<obs::TraceSpan> spans =
        obs::read_trace_file(trace_path);
    std::fputs(obs::render_trace_summary(spans).c_str(), stdout);

    if (timeline) {
      for (const obs::ReclaimEvent& r : obs::reclaim_timeline(spans)) {
        std::printf("reclaim @%.3f ms (iter %lld): %s <- %s, %zu bytes\n",
                    r.at_ms, static_cast<long long>(r.iteration),
                    r.starved.c_str(), r.donor.c_str(),
                    static_cast<size_t>(r.bytes));
      }
    }

    if (chrome_path != nullptr) {
      const std::string json = obs::chrome_trace_json(spans);
      FILE* f = std::fopen(chrome_path, "w");
      TT_CHECK_MSG(f != nullptr, "cannot open " << chrome_path);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("chrome trace written to %s (%zu bytes)\n", chrome_path,
                  json.size());
    }
  } catch (const CheckError& e) {
    std::fprintf(stderr, "trace_report: %s\n", e.what());
    return 1;
  }
  return 0;
}
