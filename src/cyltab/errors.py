class CyltabError(ValueError):
    """The common base of every error the library reports."""
