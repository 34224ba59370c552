#include "util/argparse.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/logging.hpp"

namespace hermes {
namespace util {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{
}

void
ArgParser::addFlag(const std::string &name, const std::string &default_value,
                   const std::string &help)
{
    HERMES_ASSERT(!flags_.count(name), "duplicate flag --", name);
    flags_[name] = Flag{default_value, help, default_value, false};
    order_.push_back(name);
}

void
ArgParser::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp();
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0) {
            HERMES_FATAL("unexpected positional argument '", arg,
                         "' (see --help)");
        }
        std::string name = arg.substr(2);
        std::string value;
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
        } else {
            if (i + 1 >= argc) {
                HERMES_FATAL("flag --", name, " is missing a value");
            }
            value = argv[++i];
        }
        auto it = flags_.find(name);
        if (it == flags_.end()) {
            HERMES_FATAL("unknown flag --", name, " (see --help)");
        }
        it->second.value = value;
        it->second.given = true;
    }
}

const ArgParser::Flag &
ArgParser::find(const std::string &name) const
{
    auto it = flags_.find(name);
    HERMES_ASSERT(it != flags_.end(), "undeclared flag --", name);
    return it->second;
}

const std::string &
ArgParser::get(const std::string &name) const
{
    return find(name).value;
}

long
ArgParser::getInt(const std::string &name) const
{
    const auto &value = get(name);
    char *end = nullptr;
    long parsed = std::strtol(value.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
        HERMES_FATAL("flag --", name, " expects an integer, got '", value,
                     "'");
    }
    return parsed;
}

double
ArgParser::getDouble(const std::string &name) const
{
    const auto &value = get(name);
    char *end = nullptr;
    double parsed = std::strtod(value.c_str(), &end);
    if (end == nullptr || *end != '\0') {
        HERMES_FATAL("flag --", name, " expects a number, got '", value,
                     "'");
    }
    return parsed;
}

bool
ArgParser::getBool(const std::string &name) const
{
    const auto &value = get(name);
    if (value == "true" || value == "1" || value == "yes")
        return true;
    if (value == "false" || value == "0" || value == "no")
        return false;
    HERMES_FATAL("flag --", name, " expects true/false, got '", value, "'");
}

bool
ArgParser::given(const std::string &name) const
{
    return find(name).given;
}

void
ArgParser::printHelp() const
{
    std::printf("%s — %s\n\nflags:\n", program_.c_str(),
                description_.c_str());
    for (const auto &name : order_) {
        const auto &flag = flags_.at(name);
        std::printf("  --%-20s %s (default: %s)\n", name.c_str(),
                    flag.help.c_str(),
                    flag.default_value.empty() ? "\"\""
                                               : flag.default_value.c_str());
    }
}

const char *
matchOption(const char *arg, const char *name)
{
    std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) == 0 && arg[len] == '=')
        return arg + len + 1;
    return nullptr;
}

} // namespace util
} // namespace hermes
