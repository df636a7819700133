// Wire messages between the gateway (trusted zone) and cloud nodes
// (untrusted zone).
//
// A request names a method and carries an opaque payload; a response is
// either a payload or a typed error. Framing is length-prefixed so the
// same bytes could run over a real socket unchanged.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace datablinder::net {

struct Request {
  std::string method;
  Bytes payload;

  Bytes serialize() const;
  static Request deserialize(BytesView b);
};

struct Response {
  bool ok = true;
  ErrorCode error = ErrorCode::kInternal;  // meaningful when !ok
  std::string error_message;               // meaningful when !ok
  Bytes payload;                           // meaningful when ok

  static Response success(Bytes payload);
  static Response failure(ErrorCode code, std::string message);

  Bytes serialize() const;
  static Response deserialize(BytesView b);
};

/// The batch framing: be32 count, then `count` frames, each a be32 length
/// and that many bytes. rpc.batch requests carry serialized Requests in it,
/// their replies serialized Responses, and an intent-journal record its
/// captured Requests.
class BatchWriter {
 public:
  BatchWriter() : out_(4, 0) {}

  void add(BytesView frame);
  /// The framed batch; the writer is spent.
  Bytes finish() &&;

 private:
  Bytes out_;  // count placeholder, then the frames
  std::uint32_t count_ = 0;
};

/// Views of the frames of `batch`, which must outlive them. A count or a
/// length that runs past the end, or bytes after the last frame, throw
/// `error`: kProtocolError for wire input, kInternal for a journal record.
std::vector<BytesView> read_batch(BytesView batch,
                                  ErrorCode error = ErrorCode::kProtocolError);
std::vector<BytesView> read_batch(Bytes&&, ErrorCode = {}) = delete;  // views would dangle

}  // namespace datablinder::net
