// oseld — the osel decision service daemon.
//
// Compiles the built-in Polybench suite (plus any --file kernels) into a
// PAD, registers every kernel with a service::Server, and serves
// decide/decideBatch/stats over the versioned wire protocol on a
// Unix-domain socket until SIGINT/SIGTERM. docs/SERVICE.md has the wire
// spec and deployment notes; `oselctl ping|decide|stats --socket` and
// `loadgen_oseld` are the clients.
//
//   oseld [--socket /tmp/oseld.sock] [--workers 4] [--max-pending 64]
//         [--tcp PORT] [--metrics-port PORT]
//         [--slow-threshold SECONDS] [--slow-ring N]
//         [--threads 160] [--platform v100|k80] [--file path.osel]
//
// Port flags: omitted = endpoint disabled; 0 = pick a free port (printed
// on the ready line); >0 = bind that port. The ready line goes to stdout
// and is flushed before serving, so scripts can wait for it:
//
//   oseld: serving on /tmp/oseld.sock (workers=4, protocol v2)
#include <csignal>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "frontend/parser.h"
#include "polybench/polybench.h"
#include "service/server.h"
#include "support/cli.h"

namespace {

using namespace osel;

constexpr const char* kUsage =
    "usage: oseld [options]\n"
    "\n"
    "  --socket PATH        Unix-domain socket to serve (default\n"
    "                       /tmp/oseld.sock)\n"
    "  --workers N          connection worker threads (default 4)\n"
    "  --max-pending N      accepted connections queued beyond this are\n"
    "                       shed with Error{Shed} (default 64)\n"
    "  --tcp PORT           also serve on loopback TCP (0 = free port)\n"
    "  --metrics-port PORT  loopback HTTP `GET /metrics` Prometheus\n"
    "                       endpoint (0 = free port)\n"
    "  --slow-threshold S   capture decide requests slower than S seconds\n"
    "                       (server wall time) in the slow-request ring\n"
    "                       served by `oselctl slow` (default 0.05;\n"
    "                       <= 0 disables threshold capture)\n"
    "  --slow-ring N        slow-request ring capacity (default 256)\n"
    "  --threads T          CPU model thread count (default 160)\n"
    "  --platform v100|k80  device pairing (default v100)\n"
    "  --policy NAME        selection policy: model-compare (default)\n"
    "                       or calibrated\n"
    "  --file path.osel     serve kernels from a kernel-language file in\n"
    "                       addition to the built-in Polybench suite\n";

}  // namespace

int main(int argc, char** argv) {
  const auto cl = support::CommandLine::parse(argc, argv);
  if (cl.hasFlag("help") || cl.hasFlag("h")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (!cl.positional().empty()) {
    std::fprintf(stderr, "oseld: unexpected argument %s\n\n",
                 cl.positional()[0].c_str());
    std::fputs(kUsage, stderr);
    return 2;
  }

  service::ServiceOptions serviceOptions;
  serviceOptions.socketPath =
      cl.stringOption("socket").value_or("/tmp/oseld.sock");
  serviceOptions.workerThreads =
      static_cast<std::size_t>(cl.intOption("workers", 4));
  serviceOptions.maxPendingConnections =
      static_cast<std::size_t>(cl.intOption("max-pending", 64));
  serviceOptions.tcpPort = static_cast<int>(cl.intOption("tcp", -1));
  serviceOptions.metricsPort =
      static_cast<int>(cl.intOption("metrics-port", -1));
  serviceOptions.slowThresholdSeconds = cl.doubleOption(
      "slow-threshold", serviceOptions.slowThresholdSeconds);
  serviceOptions.slowRingCapacity = static_cast<std::size_t>(cl.intOption(
      "slow-ring", static_cast<std::int64_t>(serviceOptions.slowRingCapacity)));

  const bool k80 = cl.stringOption("platform").value_or("v100") == "k80";
  runtime::RuntimeOptions rtOptions;
  rtOptions.selector.cpuThreads =
      static_cast<int>(cl.intOption("threads", 160));
  if (k80) {
    rtOptions.selector.cpuParams = cpumodel::CpuModelParams::power8();
    rtOptions.selector.gpuParams = gpumodel::GpuDeviceParams::teslaK80();
    rtOptions.selector.mcaModelName = "POWER8";
    rtOptions.cpuSim = cpusim::CpuSimParams::power8();
    rtOptions.gpuSim = gpusim::GpuSimParams::teslaK80();
  }
  rtOptions.cpuSimThreads = rtOptions.selector.cpuThreads;

  if (const auto policyName = cl.stringOption("policy")) {
    const auto kind = runtime::policy::parsePolicyKind(*policyName);
    if (!kind.has_value()) {
      std::fprintf(stderr, "oseld: unknown --policy '%s' (expected %s)\n",
                   policyName->c_str(),
                   runtime::policy::policyKindNames().c_str());
      return 2;
    }
    runtime::policy::PolicyOptions policyOptions;
    policyOptions.kind = *kind;
    rtOptions.selector.policy = runtime::policy::makePolicy(policyOptions);
  }

  try {
    // The served fleet: every Polybench kernel plus any --file kernels.
    std::vector<ir::TargetRegion> regions;
    for (const polybench::Benchmark& benchmark : polybench::suite()) {
      for (const ir::TargetRegion& kernel : benchmark.kernels()) {
        regions.push_back(kernel);
      }
    }
    if (const auto file = cl.stringOption("file"); file && !file->empty()) {
      for (ir::TargetRegion& kernel : frontend::parseKernelFile(*file)) {
        regions.push_back(std::move(kernel));
      }
    }
    const std::array<mca::MachineModel, 2> hosts{mca::MachineModel::power9(),
                                                 mca::MachineModel::power8()};
    pad::AttributeDatabase database = compiler::compileAll(regions, hosts);

    // Block the shutdown signals before start() so every server thread
    // inherits the mask and sigwait() below is the only consumer.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    service::Server server(std::move(database), rtOptions, serviceOptions);
    for (ir::TargetRegion& kernel : regions) {
      server.registerRegion(std::move(kernel));
    }
    server.start();

    std::printf("oseld: serving on %s (workers=%zu, protocol v%u)\n",
                serviceOptions.socketPath.c_str(),
                server.options().workerThreads,
                static_cast<unsigned>(service::kProtocolVersion));
    if (serviceOptions.tcpPort >= 0) {
      std::printf("oseld: tcp on 127.0.0.1:%u\n",
                  static_cast<unsigned>(server.tcpPort()));
    }
    if (serviceOptions.metricsPort >= 0) {
      std::printf("oseld: metrics on http://127.0.0.1:%u/metrics\n",
                  static_cast<unsigned>(server.metricsPort()));
    }
    if (rtOptions.selector.policy != nullptr) {
      const std::string name(
          runtime::policy::toString(rtOptions.selector.policy->kind()));
      std::printf("oseld: policy %s\n", name.c_str());
    }
    std::fflush(stdout);

    int signal = 0;
    sigwait(&signals, &signal);
    std::fprintf(stderr, "oseld: caught signal %d, draining\n", signal);
    server.stop();
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "oseld: %s\n", error.what());
    return 1;
  }
}
