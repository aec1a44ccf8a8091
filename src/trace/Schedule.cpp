//===- trace/Schedule.cpp - Recorded thread schedules ---------------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/Schedule.h"

using namespace icb::trace;

unsigned Schedule::preemptions() const {
  unsigned Count = 0;
  for (const ScheduleEntry &E : Entries)
    Count += E.Preemption ? 1 : 0;
  return Count;
}

unsigned Schedule::contextSwitches() const {
  unsigned Count = 0;
  for (const ScheduleEntry &E : Entries)
    Count += E.ContextSwitch ? 1 : 0;
  return Count;
}

void Schedule::truncate(size_t Len) {
  if (Len < Entries.size())
    Entries.resize(Len);
}

std::string Schedule::str() const {
  std::string Text;
  for (size_t I = 0; I != Entries.size(); ++I) {
    if (I != 0)
      Text += ' ';
    Text += std::to_string(Entries[I].Tid);
    if (Entries[I].Preemption)
      Text += '*';
    else if (Entries[I].ContextSwitch)
      Text += '^';
  }
  return Text;
}

bool Schedule::parse(const std::string &Text, Schedule &Out) {
  // This guards checkpoint and .icbrepro loading, so it must reject
  // corrupt tokens cleanly rather than truncating them (no strtoul — that
  // would accept "+1", " 1", and silently wrap values past ULONG_MAX).
  Out = Schedule();
  if (scanScheduleText(Text, [&Out](uint32_t Tid, bool Preemption,
                                    bool Switch) {
        Out.append(Tid, Preemption, Switch);
        return true;
      }))
    return true;
  Out = Schedule();
  return false;
}
