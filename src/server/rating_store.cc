#include "server/rating_store.h"

#include <cmath>

#include "server/json.h"
#include "util/json_parse.h"
#include "util/string_util.h"

namespace altroute {

namespace {

Status ValidateRatings(const RatingSubmission& submission) {
  for (int r : submission.ratings) {
    if (r < 1 || r > 5) {
      return Status::InvalidArgument("ratings must be between 1 and 5");
    }
  }
  return Status::OK();
}

}  // namespace

std::string RatingSubmissionToJsonLine(const RatingSubmission& submission) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ratings").BeginArray();
  for (int r : submission.ratings) w.Int(r);
  w.EndArray();
  w.Key("resident").Bool(submission.melbourne_resident);
  w.Key("comment").String(submission.comment);
  w.EndObject();
  return w.TakeString();
}

Result<RatingSubmission> ParseRatingSubmissionJsonLine(std::string_view line) {
  ALTROUTE_ASSIGN_OR_RETURN(JsonValue root, ParseJson(line));
  const JsonValue* ratings = root.Find("ratings");
  const JsonValue* resident = root.Find("resident");
  const JsonValue* comment = root.Find("comment");
  if (ratings == nullptr || !ratings->is_array() || resident == nullptr ||
      !resident->is_bool() || comment == nullptr || !comment->is_string()) {
    return Status::InvalidArgument("malformed rating record");
  }
  RatingSubmission s;
  if (ratings->AsArray().size() != s.ratings.size()) {
    return Status::InvalidArgument("a rating record rates four approaches");
  }
  for (size_t a = 0; a < s.ratings.size(); ++a) {
    const JsonValue& rating = ratings->AsArray()[a];
    const double r = rating.is_number() ? rating.AsNumber() : 0.0;
    if (r != std::trunc(r) || r < 1 || r > 5) {
      return Status::InvalidArgument(
          "ratings must be integers between 1 and 5");
    }
    s.ratings[a] = static_cast<int>(r);
  }
  s.melbourne_resident = resident->AsBool();
  s.comment = comment->AsString();
  return s;
}

Status RatingStore::AttachFile(const std::string& path) {
  MutexLock lock(&mu_);
  corrupt_lines_ = 0;
  {
    // Replay whatever the previous process managed to write. A missing file
    // is fine (first run); a torn final line is fine (crash mid-append).
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (Trim(line).empty()) continue;
      auto parsed = ParseRatingSubmissionJsonLine(line);
      if (parsed.ok()) {
        submissions_.push_back(std::move(*parsed));
      } else {
        ++corrupt_lines_;
      }
    }
  }
  // A torn final line (crash between the record and its newline) must not
  // absorb the next append: heal the tail with a newline so every future
  // record starts a fresh line.
  bool needs_newline = false;
  {
    std::ifstream tail(path, std::ios::binary);
    if (tail.is_open() && tail.seekg(-1, std::ios::end)) {
      char last = '\n';
      if (tail.get(last)) needs_newline = last != '\n';
    }
  }
  log_.open(path, std::ios::out | std::ios::app);
  if (!log_.is_open()) {
    return Status::IOError("cannot open ratings file for append: " + path);
  }
  if (needs_newline) {
    log_ << '\n';
    log_.flush();
  }
  return Status::OK();
}

size_t RatingStore::corrupt_lines_recovered() const {
  MutexLock lock(&mu_);
  return corrupt_lines_;
}

Status RatingStore::Add(const RatingSubmission& submission) {
  if (Status valid = ValidateRatings(submission); !valid.ok()) return valid;
  MutexLock lock(&mu_);
  if (log_.is_open()) {
    // Durability before visibility: the line must reach the OS before the
    // submission counts, so a crash can lose at most the in-flight form.
    log_ << RatingSubmissionToJsonLine(submission) << '\n';
    log_.flush();
    if (!log_.good()) {
      log_.clear();
      return Status::IOError("failed to append rating to log file");
    }
  }
  submissions_.push_back(submission);
  return Status::OK();
}

size_t RatingStore::size() const {
  MutexLock lock(&mu_);
  return submissions_.size();
}

std::vector<RatingSubmission> RatingStore::Snapshot() const {
  MutexLock lock(&mu_);
  return submissions_;
}

std::array<double, kNumApproaches> RatingStore::MeanRatings() const {
  MutexLock lock(&mu_);
  std::array<double, kNumApproaches> means{};
  if (submissions_.empty()) return means;
  for (const RatingSubmission& s : submissions_) {
    for (int a = 0; a < kNumApproaches; ++a) {
      means[static_cast<size_t>(a)] += s.ratings[static_cast<size_t>(a)];
    }
  }
  for (double& m : means) m /= static_cast<double>(submissions_.size());
  return means;
}

Status RatingStore::ExportCsv(std::ostream& out) const {
  MutexLock lock(&mu_);
  out << "A,B,C,D,resident,comment\n";
  for (const RatingSubmission& s : submissions_) {
    for (int a = 0; a < kNumApproaches; ++a) {
      out << s.ratings[static_cast<size_t>(a)] << ",";
    }
    out << (s.melbourne_resident ? 1 : 0) << ",";
    // Quote the comment; double embedded quotes per RFC 4180.
    out << '"';
    for (char c : s.comment) {
      if (c == '"') out << '"';
      out << c;
    }
    out << "\"\n";
  }
  if (!out.good()) return Status::IOError("CSV write failed");
  return Status::OK();
}

}  // namespace altroute
