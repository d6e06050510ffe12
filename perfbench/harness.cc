#include "harness.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/export.hh"

namespace perfbench
{

namespace
{

/** main() entry, the fallback origin of setup time. */
const Clock::time_point kProcessStart = Clock::now();

} // anonymous namespace

double
setupSeconds(const Options &options)
{
    if (options.spawnTime < 0.0) {
        return std::chrono::duration<double>(Clock::now() - kProcessStart)
            .count();
    }
    // steady_clock is CLOCK_MONOTONIC, the clock the spawner read.
    const double now =
        std::chrono::duration<double>(Clock::now().time_since_epoch())
            .count();
    return now - options.spawnTime;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
digest(std::string_view text)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

Goldens::Goldens(const std::string &path, const std::string &size)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read goldens " + path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string entry_size, key, hex;
        if (!(fields >> entry_size >> key >> hex))
            throw std::runtime_error("malformed golden line: " + line);
        if (entry_size == size)
            digests_[key] = hex;
    }
}

bool
Goldens::matches(const FigureText &figure) const
{
    const auto it = digests_.find(figure.key);
    return it != digests_.end() && it->second == digest(figure.text);
}

bool
Goldens::matchesAll(const std::vector<FigureText> &figures) const
{
    return std::all_of(figures.begin(), figures.end(),
                       [&](const FigureText &f) { return matches(f); });
}

void
placeOnNextCpu()
{
    static const cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        sched_getaffinity(0, sizeof(set), &set);
        return set;
    }();
    static size_t turn = 0;
    const int count = CPU_COUNT(&allowed);
    if (count <= 1)
        return;
    int skip = static_cast<int>(turn++ % static_cast<size_t>(count));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed) || skip-- > 0)
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
        break;
    }
    sched_setaffinity(0, sizeof(allowed), &allowed);
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double position = q * static_cast<double>(samples.size() - 1);
    const size_t low = static_cast<size_t>(std::floor(position));
    const size_t high = std::min(low + 1, samples.size() - 1);
    const double weight = position - static_cast<double>(low);
    return samples[low] * (1.0 - weight) + samples[high] * weight;
}

void
writeTraceEvents(const std::string &path,
                 const std::vector<autofsm::obs::SpanRecord> &spans)
{
    std::ofstream out(path);
    autofsm::obs::renderTraceEvents(out, spans);
}

} // namespace perfbench
