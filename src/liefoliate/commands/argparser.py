"""What argparse is told of a command: ``cli.build_parser`` alone imports
this module, for help, ``--version`` and every argv that ``commands.match``
declines, so a well-formed call never compiles it."""

from importlib import import_module


def add_arguments(parser, command: str) -> None:
    """Give argparse's parser of ``command`` its declared description,
    action and options, and the command's ``run``."""
    module = import_module(f".{command}", __package__)
    parser.description = getattr(module, "DESCRIPTION", None)
    parser.set_defaults(run=module.run)
    actions = getattr(module, "ACTIONS", ())
    if isinstance(actions, dict):
        sub = parser.add_subparsers(dest="action", required=True)
        groups = [(sub.add_parser(action, help=text), options) for action, (text, options) in actions.items()]
    else:
        if actions:
            parser.add_argument("action", choices=actions)
        groups = [(parser, module.OPTIONS)]
    for p, options in groups:
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
