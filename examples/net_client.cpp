// net_client — streaming ingest demo + end-to-end exactness check.
//
// Connects to a running net_server example, streams Kronecker edge
// batches from two concurrent connections (each pinned to its own
// server lane), flushes, and then verifies the server's Σ Ai against
// the locally-known ground truth: every streamed edge carries value
// 1.0, so the exact sum IS the number of entries sent. Exits 0 only on
// a bit-exact match — the CI smoke test runs exactly this pair.
//
//   ./example_net_client [port] [host]     (default 17871, 127.0.0.1)
#include <cstdio>
#include <cstdlib>

#ifdef __linux__

#include <string>
#include <thread>
#include <vector>

#include "gen/gen.hpp"
#include "net/net.hpp"

int main(int argc, char** argv) {
  const std::uint16_t port =
      argc > 1 ? static_cast<std::uint16_t>(std::atoi(argv[1])) : 17871;
  const std::string host = argc > 2 ? argv[2] : "127.0.0.1";

  const std::size_t connections = 2, batches = 10, batch_size = 20000;

  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < connections; ++c) {
    senders.emplace_back([&, c] {
      gen::KroneckerParams kp;
      kp.scale = 17;
      kp.seed = 4242 + c;
      gen::KroneckerGenerator g(kp);
      net::Client cli;
      cli.connect(host, port);
      for (std::size_t b = 0; b < batches; ++b)
        cli.insert(g.batch<double>(batch_size), c);  // pin to lane c
      cli.flush();  // barrier: everything above is applied
      cli.bye();
    });
  }
  for (auto& t : senders) t.join();

  const double expected =
      static_cast<double>(connections * batches * batch_size);

  // Read through net::Client's queries — a cluster::RouterClient is a
  // net::Client, so this block would run verbatim against an N-worker
  // router instead of one server.
  net::Client cli;
  cli.connect(host, port);
  const auto sum = cli.query_sum();
  const auto summary = cli.query_summary();
  const auto refresh = cli.query_refresh();
  cli.bye();

  std::printf("streamed %zu connections x %zu batches x %zu entries\n",
              connections, batches, batch_size);
  std::printf("server sum=%.1f (epoch %llu, %llu distinct coords); "
              "expected %.1f\n",
              sum.sum, static_cast<unsigned long long>(sum.epoch),
              static_cast<unsigned long long>(sum.nvals), expected);
  std::printf("traffic summary: %llu links, %.0f packets, %llu sources, "
              "%llu destinations, max %.0f mean %.3f\n",
              static_cast<unsigned long long>(summary.links), summary.packets,
              static_cast<unsigned long long>(summary.sources),
              static_cast<unsigned long long>(summary.destinations),
              summary.max_link, summary.mean_link);
  std::printf("incremental refresh: epoch %llu, +%llu added, %llu changed, "
              "full_recompute=%llu, maintained sum %.1f\n",
              static_cast<unsigned long long>(refresh.epoch),
              static_cast<unsigned long long>(refresh.added),
              static_cast<unsigned long long>(refresh.changed),
              static_cast<unsigned long long>(refresh.full_recompute),
              refresh.sum);

  const bool exact = sum.sum == expected && summary.packets == expected &&
                     refresh.sum == expected;
  std::printf("round-trip: %s\n", exact ? "EXACT" : "DIVERGED");
  return exact ? 0 : 1;
}

#else  // !__linux__

int main() {
  std::printf("net_client: the ingest client is Linux-only\n");
  return 0;
}

#endif
