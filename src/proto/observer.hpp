// Tick-level introspection of a running TransferSession.
//
// The sampling windows (SampleStats) are what the *algorithms* see; an
// observer sees what the *engine* does every tick — per-channel rates and
// assignments, aggregate goodput, instantaneous power. That is the right
// granularity for debugging a calibration ("why is the Large chunk's channel
// stuck at 0.7 Gbps at t=40?"). Scheduled runs export their time series
// through obs::TelemetryHub and the trace counter tracks instead.
//
// Observation is passive and allocation-light: the engine fills one TickTrace
// per tick only when an observer is attached.
#pragma once

#include <vector>

#include "util/units.hpp"

namespace eadt::proto {

struct ChannelTrace {
  int chunk = -1;
  int parallelism = 1;
  bool busy = false;
  BitsPerSecond rate = 0.0;  ///< allocated burst rate this tick
  Bytes moved = 0;           ///< bytes actually moved this tick
  bool down = false;         ///< failed; waiting out reconnect backoff
};

struct TickTrace {
  Seconds time = 0.0;             ///< end of the tick's slice
  BitsPerSecond goodput = 0.0;    ///< aggregate bytes moved / tick
  Watts end_system_power = 0.0;   ///< both endpoints, this tick
  int open_channels = 0;
  int down_channels = 0;            ///< channels in failure backoff this tick
  double path_capacity_factor = 1.0;  ///< < 1 during an injected brownout
  std::vector<ChannelTrace> channels;
};

class SessionObserver {
 public:
  virtual ~SessionObserver() = default;
  virtual void on_tick(const TickTrace& trace) = 0;
};

}  // namespace eadt::proto
