#include "kvstore/wal.h"

#include "common/crc32c.h"
#include "common/fileutil.h"
#include "faultsim/fault.h"
#include "faultsim/fault_points.h"
#include "kvstore/coding.h"

namespace teeperf::kvs {

Status WalWriter::open(const std::string& path, bool truncate) {
  close();
  file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (!file_) return Status::io_error("open " + path);
  return Status::ok();
}

Status WalWriter::append(std::string_view record) {
  if (!file_) return Status::io_error("wal not open");
  std::string frame;
  frame.reserve(8 + record.size());
  put_fixed32(&frame, crc32c_mask(crc32c(record.data(), record.size())));
  put_fixed32(&frame, static_cast<u32>(record.size()));
  frame.append(record.data(), record.size());
  // Fault point: the process dying mid-fwrite — only a prefix of the frame
  // reaches the file, which recovery must treat as an unacknowledged tear.
  if (fault::fires(fault_points::kWalAppendTorn)) {
    usize cut = 1 + static_cast<usize>(
                        fault::value_below(fault_points::kWalAppendTorn, frame.size() - 1));
    std::fwrite(frame.data(), 1, cut, file_);
    std::fflush(file_);
    return Status::io_error("wal write torn (fault injection)");
  }
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return Status::io_error("wal write");
  }
  return Status::ok();
}

Status WalWriter::flush() {
  if (file_ && std::fflush(file_) != 0) return Status::io_error("wal flush");
  return Status::ok();
}

void WalWriter::close() {
  if (file_) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status WalReader::read_all(const std::string& path, std::vector<std::string>* records,
                           bool* truncated, bool strict) {
  records->clear();
  if (truncated) *truncated = false;
  auto data = read_file(path);
  if (!data) return Status::ok();  // no WAL yet: empty DB

  // Fault point: untrusted host storage flipping a bit under the reader;
  // the CRC framing must reject the record, never crash.
  if (!data->empty() && fault::fires(fault_points::kWalReadFlip)) {
    u64 bit = fault::value_below(fault_points::kWalReadFlip, data->size() * 8);
    (*data)[bit / 8] = static_cast<char>((*data)[bit / 8] ^ (1u << (bit % 8)));
  }

  const char* p = data->data();
  const char* limit = p + data->size();
  while (p + 8 <= limit) {
    u32 masked = get_fixed32(p);
    u32 len = get_fixed32(p + 4);
    if (p + 8 + len > limit) {
      if (truncated) *truncated = true;
      return strict ? Status::corruption("torn wal record") : Status::ok();
    }
    u32 crc = crc32c(p + 8, len);
    if (crc32c_unmask(masked) != crc) {
      if (truncated) *truncated = true;
      return strict ? Status::corruption("wal crc mismatch") : Status::ok();
    }
    records->emplace_back(p + 8, len);
    p += 8 + len;
  }
  if (p != limit && truncated) *truncated = true;
  return Status::ok();
}

}  // namespace teeperf::kvs
